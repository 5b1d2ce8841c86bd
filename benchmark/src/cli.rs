//! Command line of `bench` / `bench_traced`, result printing, and the A/A
//! gate.

use crate::drive::{self, Report};
use crate::layers;
use crate::manifest::{END_TO_END, RUN_SECONDS};
use crate::stats;
use crate::with_workload;
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  bench --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] [--out <dir>]
      one run of one workload; the last stdout line is the result object.
      --trace 1 is the traced run: per-layer metrics, plus
      <out>/<workload>/layers.json and trace.json (default <out>: benchmark/out)
  bench --gate [--runs <n>] [--seed <u64>] [--seconds <n>]
      A/A check: every workload, two alternating sets of <n> runs (default 5)
workloads: fft_serial mm_serial sort_sharded serve_warm";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    gate: bool,
    runs: usize,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        gate: false,
        runs: 5,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => a.out = PathBuf::from(value()?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--gate" => a.gate = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 0.1 && a.seconds <= 600.0) {
        return Err("--seconds must lie in 0.1..=600".into());
    }
    if a.runs == 0 {
        return Err("--runs must be positive".into());
    }
    Ok(a)
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ =
            write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    out.push_str("}}");
    out
}

/// Reads `"name": {"value": <number>` back out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn print_report(workload: &str, r: &Report) {
    println!(
        "workload {workload}: correct={} attempted={} failed={}",
        r.correct, r.attempted, r.failed
    );
    for m in &r.metrics {
        println!("  {:<34} {:>18.6} {:<6} (samples: {})", m.name, m.value, m.unit, m.samples);
    }
    if let Some(e) = &r.error {
        eprintln!("bench: {workload}: {e}");
    }
    println!("{}", result_line(r));
}

/// Path of a binary built next to the running one.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name(name))
}

/// Entry point of both binaries; `traced_binary` says which one is running.
pub fn main(traced_binary: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.gate {
        return gate(&args);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("bench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.trace && !traced_binary {
        // The counting allocator is a property of the binary, so the traced
        // run lives in the sibling; this process only waits for it.
        let status = sibling("bench_traced").and_then(|exe| {
            Command::new(&exe).args(&argv).status().map_err(|e| format!("{}: {e}", exe.display()))
        });
        return match status {
            Ok(s) if s.success() => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = if traced_binary {
        with_workload!(name, |w| layers::traced(w, name, args.seed, args.seconds, &args.out))
    } else {
        with_workload!(name, |w| drive::end_to_end(w, args.seed, args.seconds))
    };
    let Some(report) = report else {
        eprintln!("bench: unknown workload `{name}`\n{USAGE}");
        return ExitCode::from(2);
    };
    print_report(name, &report);
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run of the plain binary; returns its end-to-end values in
/// `END_TO_END` order.
fn child_run(exe: &PathBuf, workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !line.contains("\"correct\": true") {
        return Err(format!("{workload} seed {seed} failed: {line}"));
    }
    END_TO_END
        .iter()
        .map(|m| metric_value(line, m.0).ok_or(format!("{workload}: no `{}` in `{line}`", m.0)))
        .collect()
}

/// A/A check on the current build: per workload, sets A and B of `runs`
/// runs each, alternating A, B, A, B … so drift hits both alike; prints
/// both medians, their relative difference and the bound per metric, and
/// fails on any pair outside its bound.
fn gate(args: &Args) -> ExitCode {
    let exe = match sibling("bench") {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("| workload | metric | unit | median A | median B | rel. diff | bound | ok |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        // sets[set][metric] = values
        let mut sets = [vec![Vec::new(); END_TO_END.len()], vec![Vec::new(); END_TO_END.len()]];
        for i in 0..2 * args.runs {
            match child_run(&exe, workload, args.seed + i as u64, args.seconds) {
                Ok(values) => {
                    for (slot, v) in sets[i % 2].iter_mut().zip(values) {
                        slot.push(v);
                    }
                }
                Err(e) => {
                    eprintln!("bench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        for (k, (metric, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let a = stats::median(&sets[0][k]).unwrap_or(0.0);
            let b = stats::median(&sets[1][k]).unwrap_or(0.0);
            let diff = if a != 0.0 { (b - a) / a } else { f64::INFINITY };
            let ok = diff.abs() <= *bound;
            all_ok &= ok;
            println!(
                "| {workload} | {metric} | {unit} | {a:.6} | {b:.6} | {:+.2}% | {:.0}% | {} |",
                diff * 100.0,
                bound * 100.0,
                if ok { "yes" } else { "NO" }
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Metric;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(&argv("--workload mm_serial --seed 42 --seconds 20 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("mm_serial"), 42, 20.0, true)
        );
        assert!(!parse(&argv("--workload x --trace 0")).unwrap().trace);
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--seed")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--frobnicate")).is_err());
    }

    #[test]
    fn result_line_round_trips_through_metric_value() {
        let r = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Metric { name: "setup_s", value: 0.012345678901, unit: "s", samples: 15 },
                Metric { name: "peak_rss_mb", value: 6.51171875, unit: "MB", samples: 1 },
            ],
            error: None,
        };
        let line = result_line(&r);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.012345678901));
        assert_eq!(metric_value(&line, "peak_rss_mb"), Some(6.51171875));
        assert_eq!(metric_value(&line, "job_p50_us"), None);
    }
}
