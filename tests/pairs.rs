//! The pair runner's own behaviour (`scripts/pairs.sh`).
//!
//! Hermetic, like `exact_gate.rs`: each case plants two sibling trees whose
//! `benchmark/run.sh` is a stub that logs the call and replays planted
//! values as an untraced run's report, so nothing is built or measured.
//! What is pinned: the side that runs first alternates and the options
//! reach the runs; medians, quartiles, the relative difference and the
//! wins/ties count are what the planted values say; trees whose paths differ
//! in length are refused before any run; and an incorrect, failed or silent
//! run fails the whole comparison, naming side, pair and workload; and
//! `--trace 1` runs the traced benchmark, tabulates only the named metrics
//! (`:higher` flips the win test) and fails on a name no run reports.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Stands in for `benchmark/run.sh`: appends `<tree> <args>` to the shared
/// `calls.log`, then prints what `bench` prints — the status line (from
/// `status` when the case planted one) and two metrics read from line *k* of
/// the tree's `values.txt` on its *k*-th call: the gated pair for
/// `--trace 0`, two per-layer names (among others) for `--trace 1`.
const STUB: &str = r#"#!/usr/bin/env bash
tree="$(cd "$(dirname "$0")/.." && pwd)"
echo "$(basename "$tree") $*" >> "$tree/../calls.log"
k="$(grep -c "^$(basename "$tree") " "$tree/../calls.log")"
read -r first second < <(sed -n "${k}p" "$tree/values.txt")
if [ -e "$tree/status" ]; then cat "$tree/status"; else echo "workload w: correct=true attempted=5 failed=0"; fi
row() { printf '  %-34s %18.6f %-6s (samples: %d)\n' "$@"; }
case "$*" in
    *"--trace 1"*) row plan.bytes 1800 B 1 drive.job_p50_us "$first" us 5 drive.jobs_per_sec "$second" 1/s 5 ;;
    *) row setup_s "$first" s 5 peak_rss_mb "$second" MB 1 ;;
esac
echo '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}'
"#;

/// Two stub trees `<case>/<parent>` and `<case>/<change>` replaying the given
/// `(setup_s, peak_rss_mb)` — traced: `(job_p50_us, jobs_per_sec)` — rows.
fn sandbox(case: &str, names: [&str; 2], rows: [&[(f64, f64)]; 2]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("pairs").join(case);
    let _ = fs::remove_dir_all(&root);
    for (name, rows) in names.iter().zip(rows) {
        fs::create_dir_all(root.join(name).join("benchmark")).unwrap();
        fs::write(root.join(name).join("benchmark/run.sh"), STUB).unwrap();
        let values: String = rows.iter().map(|(s, r)| format!("{s} {r}\n")).collect();
        fs::write(root.join(name).join("values.txt"), values).unwrap();
    }
    root
}

fn pairs(root: &Path, names: [&str; 2], args: &[&str]) -> Output {
    Command::new("bash")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/pairs.sh"))
        .args(names.map(|n| root.join(n)))
        .args(args)
        .output()
        .unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

const PARENT: [(f64, f64); 4] = [(0.4, 10.0), (0.2, 12.0), (0.3, 11.0), (0.1, 13.0)];
const CHANGE: [(f64, f64); 4] = [(0.4, 9.0), (0.3, 12.0), (0.2, 10.0), (0.1, 8.0)];

#[test]
fn alternates_sides_and_reports_quartiles_difference_and_wins() {
    let names = ["parent", "change"];
    let root = sandbox("table", names, [&PARENT, &CHANGE]);
    let out = pairs(&root, names, &["--pairs", "4", "--seconds", "7", "w", "--seed", "3"]);
    assert!(out.status.success(), "{}", text(&out.stderr));

    let log = fs::read_to_string(root.join("calls.log")).unwrap();
    let order: Vec<&str> = log.lines().map(|l| l.split(' ').next().unwrap()).collect();
    let want = ["parent", "change", "change", "parent", "parent", "change", "change", "parent"];
    assert_eq!(order, want, "parent first on odd pairs, change first on even");
    for call in log.lines() {
        assert!(call.ends_with(" --workload w --seed 3 --seconds 7 --trace 0"), "`{call}`");
    }

    let table = text(&out.stdout);
    let row = |metric: &str| {
        let found = table.lines().find(|l| l.starts_with("w ") && l.contains(metric));
        found.unwrap_or_else(|| panic!("no `{metric}` row in:\n{table}")).to_string()
    };
    // Parent 10 11 12 13, change 8 9 10 12; by pair 9<10, 12=12, 10<11, 8<13.
    let rss = row("peak_rss_mb");
    for needle in [
        "parent  11.500000 [ 10.750000,  12.250000]",
        "change   9.500000 [  8.750000,  10.500000]",
        "-17.39 %",
        "wins 3/4 (1 tied)",
    ] {
        assert!(rss.contains(needle), "`{needle}` not in `{rss}`");
    }
    // Parent .1 .2 .3 .4, change .1 .2 .3 .4; by pair tie, lose, win, tie.
    let setup = row("setup_s");
    for needle in ["parent   0.250000", "change   0.250000", "+0.00 %", "wins 1/4 (2 tied)"] {
        assert!(setup.contains(needle), "`{needle}` not in `{setup}`");
    }
}

#[test]
fn trees_with_paths_of_different_length_are_refused_before_any_run() {
    let names = ["parent", "changed"];
    let root = sandbox("lengths", names, [&PARENT, &CHANGE]);
    let out = pairs(&root, names, &["w"]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stdout));
    assert!(text(&out.stderr).contains("equal length"), "{}", text(&out.stderr));
    assert!(!root.join("calls.log").exists(), "no run may start");
}

#[test]
fn an_incorrect_failed_or_silent_run_fails_the_comparison() {
    for (case, status, needle) in [
        ("incorrect", "workload w: correct=false attempted=5 failed=0\n", "correct=false"),
        ("failed_jobs", "workload w: correct=true attempted=5 failed=2\n", "failed=2"),
        ("silent", "", "no status line"),
    ] {
        let names = ["parent", "change"];
        let root = sandbox(case, names, [&PARENT, &CHANGE]);
        fs::write(root.join("change/status"), status).unwrap();
        let out = pairs(&root, names, &["--pairs", "2", "w"]);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case}: {err}");
        for n in ["change run 1 of w", needle] {
            assert!(err.contains(n), "{case}: stderr does not name `{n}`:\n{err}");
        }
        assert!(!text(&out.stdout).contains("wins"), "{case}: a failed comparison prints no table");
    }
}

#[test]
fn traced_pairs_tabulate_only_the_named_metrics_in_their_direction() {
    let names = ["parent", "change"];
    let root = sandbox("traced", names, [&CHANGE, &PARENT]);
    let metrics = ["--metric", "drive.jobs_per_sec:higher", "--metric", "drive.job_p50_us"];
    let out =
        pairs(&root, names, &[&["--pairs", "4", "--trace", "1"], &metrics[..], &["w"]].concat());
    assert!(out.status.success(), "{}", text(&out.stderr));

    let log = fs::read_to_string(root.join("calls.log")).unwrap();
    assert_eq!(log.lines().count(), 8);
    for call in log.lines() {
        assert!(call.ends_with(" --workload w --seed 1 --seconds 20 --trace 1"), "`{call}`");
    }
    let table = text(&out.stdout);
    assert!(table.lines().next().unwrap().ends_with("--trace 1"), "{table}");
    assert!(!table.contains("plan.bytes"), "an unnamed metric is not tabulated:\n{table}");
    let row = |metric: &str| table.lines().find(|l| l.contains(metric)).unwrap().to_string();
    // Parent 8 9 10 12, change 10 11 12 13; by pair 10>9, 12=12, 11>10, 13>8.
    let rate = row("drive.jobs_per_sec");
    for needle in
        ["parent   9.500000", "change  11.500000", "+21.05 %", "wins 3/4 (1 tied) (higher wins)"]
    {
        assert!(rate.contains(needle), "`{needle}` not in `{rate}`");
    }
    // Lower still wins where `:higher` was not asked: tie, win, lose, tie.
    let p50 = row("drive.job_p50_us");
    assert!(p50.ends_with("wins 1/4 (2 tied)"), "`{p50}`");
}

#[test]
fn a_metric_no_run_reports_fails_the_comparison() {
    let names = ["parent", "change"];
    let root = sandbox("unknown", names, [&PARENT, &CHANGE]);
    let out = pairs(&root, names, &["--trace", "1", "--metric", "drive.job_p5O_us", "w"]);
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    for n in ["parent run 1 of w", "no metric `drive.job_p5O_us`"] {
        assert!(err.contains(n), "stderr does not name `{n}`:\n{err}");
    }
    assert!(!text(&out.stdout).contains("wins"), "a failed comparison prints no table");
    // A traced table of every per-layer metric is never what was meant.
    let out = pairs(&root, names, &["--trace", "1", "w"]);
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
    assert!(text(&out.stderr).contains("needs at least one --metric"), "{}", text(&out.stderr));
}
