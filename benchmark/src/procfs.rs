//! Process-level readings from `/proc/self`: CPU time and peak resident
//! memory. Linux only, like the container this benchmark is defined for.

use std::time::Duration;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/<pid>/stat`.
/// Fixed at 100 by the Linux ABI on every architecture this repo targets.
const TICKS_PER_SEC: u64 = 100;

/// Parses user + system CPU time out of one `/proc/<pid>/stat` line.
///
/// The second field (`comm`) is parenthesised and may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`: `utime` and
/// `stime` are the 14th and 15th fields of the line, i.e. the 12th and 13th
/// after the closing parenthesis.
pub fn parse_stat_cpu(stat: &str) -> Option<Duration> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 1000 / TICKS_PER_SEC))
}

/// Parses a `kB` field (such as `VmHWM`) out of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// CPU time (user + system, all threads) this process has used so far.
pub fn cpu_time() -> Option<Duration> {
    parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Peak resident set size (`VmHWM`) in kB.
pub fn peak_rss_kb() -> Option<u64> {
    parse_status_kb(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Starts `peak_rss_mb` afresh: hands the allocator's free pages back to
/// the kernel, then resets the peak-RSS high-water mark to what is still
/// resident. Without this the untimed phases before the window (cold
/// set-ups, the reference-engine oracle) set the peak: 9 of 15 MB on
/// `sort_sharded` were their freed-but-retained heap, and varied by 8 %.
/// Returns whether the kernel accepted the reset; when it did not, `VmHWM`
/// covers the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time from any thread; it only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_comm() {
        // comm = "a) b (c" — spaces and both parentheses inside the name.
        let line = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 120 0 0 0 \
                    250 50 0 0 20 0 3 0 1000 10000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(line), Some(Duration::from_millis(3000)));
    }

    #[test]
    fn stat_cpu_rejects_truncated_lines() {
        assert_eq!(parse_stat_cpu("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu("no parenthesis at all"), None);
    }

    #[test]
    fn status_kb_field() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn live_readings_parse_on_linux() {
        assert!(cpu_time().is_some());
        assert!(peak_rss_kb().is_some_and(|kb| kb > 0));
    }
}
