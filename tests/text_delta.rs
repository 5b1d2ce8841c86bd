//! The text-size comparison's own behaviour (`scripts/text_delta.sh`).
//!
//! Hermetic, like `pairs.rs`: each case plants two sibling trees whose
//! `benchmark/target/release/bench` is a copy of an ELF already on the
//! machine, so nothing is built. What is pinned: two copies of one binary
//! report equal text and no mover; a binary with a symbol table against
//! one without lists the 15 largest symbols as movers, largest first, with
//! the `::h<hash>` suffix stripped; trees whose paths differ in length, or
//! without a built binary, are refused.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A stripped system binary: no symbol table.
const SMALL_ELF: &str = "/bin/true";

/// Two trees `<case>/<parent>` and `<case>/<change>`, each holding a copy
/// of the given binary (none for `None`) as its benchmark build.
fn sandbox(case: &str, names: [&str; 2], bins: [Option<&Path>; 2]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("text_delta").join(case);
    let _ = fs::remove_dir_all(&root);
    for (name, bin) in names.iter().zip(bins) {
        let dir = root.join(name).join("benchmark/target/release");
        fs::create_dir_all(&dir).unwrap();
        if let Some(bin) = bin {
            fs::copy(bin, dir.join("bench")).unwrap();
        }
    }
    root
}

fn text_delta(root: &Path, names: [&str; 2]) -> Output {
    Command::new("bash")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/text_delta.sh"))
        .args(names.map(|n| root.join(n)))
        .output()
        .unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn reports_text_and_the_largest_movers_by_symbol() {
    let names = ["parent", "change"];
    let small = Some(Path::new(SMALL_ELF));
    let root = sandbox("copies", names, [small, small]);
    let out = text_delta(&root, names);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let report = text(&out.stdout);
    let first = report.lines().next().unwrap();
    let fields: Vec<&str> = first.split_whitespace().collect();
    assert_eq!((fields[0], fields[1], fields[3]), ("text", "parent", "change"), "{first}");
    assert_eq!(fields[2], fields[4], "two copies have one text size: {first}");
    assert!(first.ends_with("delta +0 B (+0.00 %)"), "{first}");
    assert!(report.contains("no symbol's size moved"), "{report}");

    // This test binary keeps its symbols: against the stripped one, every
    // symbol grew from nothing.
    let exe = std::env::current_exe().unwrap();
    let root = sandbox("movers", names, [small, Some(&exe)]);
    let out = text_delta(&root, names);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let report = text(&out.stdout);
    let movers: Vec<&str> = report.lines().skip(2).collect();
    assert_eq!(movers.len(), 15, "{report}");
    let mut last = u64::MAX;
    for row in movers {
        let f: Vec<&str> = row.split_whitespace().collect();
        let delta: u64 = f[0].strip_prefix('+').unwrap().parse().unwrap();
        assert_eq!((f[1], f[2], f[3]), ("0", "->", f[0].trim_start_matches('+')), "{row}");
        assert!(delta <= last, "movers are sorted by size: {report}");
        last = delta;
        let hashed = row
            .rsplit("::h")
            .next()
            .is_some_and(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(!hashed, "hash suffix left on `{row}`");
    }
}

#[test]
fn unequal_paths_and_missing_binaries_are_refused() {
    let small = Some(Path::new(SMALL_ELF));
    let names = ["parent", "changed"];
    let root = sandbox("lengths", names, [small, small]);
    let out = text_delta(&root, names);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stdout));
    assert!(text(&out.stderr).contains("equal length"), "{}", text(&out.stderr));

    let names = ["parent", "change"];
    let root = sandbox("unbuilt", names, [small, None]);
    let out = text_delta(&root, names);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stdout));
    assert!(text(&out.stderr).contains("change/benchmark/target/release/bench not found"));
}
