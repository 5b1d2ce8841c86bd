//! The exact-count gate's own failure modes (`scripts/exact_gate.sh`).
//!
//! Hermetic: each case copies the script and the checked-in baseline into a
//! scratch tree whose `benchmark/run.sh` is a stub replaying that baseline
//! as a traced run's report, so nothing is built or measured here — tier-1
//! runs the real gate once, right after `cargo test`. What is pinned: the
//! gate passes on matching counts, and fails — never skips — naming the
//! workload and the metric when one baseline number is edited, naming the
//! workload when its run reports `correct=false`, failed jobs, a truncated
//! table or nothing at all, and naming the tool when one it needs is
//! missing; `--update` rewrites the baseline; `--seed` reaches the runs.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BASELINE: &str = "scripts/exact_counts.txt";
const WORKLOADS: [&str; 4] = ["fft_serial", "mm_serial", "sort_sharded", "serve_warm"];

/// Stands in for `benchmark/run.sh`: logs its arguments, then prints what
/// `bench --trace 1` prints for the workload — the status line (from
/// `status.<workload>` when the case planted one) and one table row per
/// line of `report.txt`, the counts "this tree" measures.
const STUB: &str = r#"#!/usr/bin/env bash
cd "$(dirname "$0")/.."
echo "$*" >> args.log
while [ $# -gt 0 ]; do
    if [ "$1" = --workload ]; then w="$2"; fi
    shift
done
if [ -e "status.$w" ]; then cat "status.$w"; else echo "workload $w: correct=true attempted=5 failed=0"; fi
awk -v w="$w" '$1 == w { printf "  %-34s %18.6f %-6s (samples: %d)\n", $2, $3, "count", 5 }' report.txt
echo '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}'
"#;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Absolute path of `bash`, so a case can hand the script an empty `PATH`.
fn bash() -> PathBuf {
    let path = std::env::var_os("PATH").expect("PATH is set");
    std::env::split_paths(&path)
        .map(|d| d.join("bash"))
        .find(|p| p.is_file())
        .expect("bash on PATH")
}

/// A scratch copy of the gate with the stub benchmark; `report.txt` starts
/// as the checked-in baseline.
fn sandbox(case: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("exact_gate").join(case);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("scripts")).unwrap();
    fs::create_dir_all(root.join("benchmark")).unwrap();
    fs::copy(repo().join("scripts/exact_gate.sh"), root.join("scripts/exact_gate.sh")).unwrap();
    fs::copy(repo().join(BASELINE), root.join(BASELINE)).unwrap();
    fs::copy(repo().join(BASELINE), root.join("report.txt")).unwrap();
    fs::write(root.join("benchmark/run.sh"), STUB).unwrap();
    root
}

fn gate(root: &Path, args: &[&str]) -> Output {
    Command::new(bash()).arg(root.join("scripts/exact_gate.sh")).args(args).output().unwrap()
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Adds one to the count of `workload metric` in `file`; returns the line
/// as it was and as it is now.
fn bump(file: &Path, workload: &str, metric: &str) -> (String, String) {
    let key = format!("{workload} {metric} ");
    let old = fs::read_to_string(file).unwrap();
    let was = old.lines().find(|l| l.starts_with(&key)).expect("a baseline line").to_string();
    let now = format!("{key}{}", was[key.len()..].parse::<f64>().unwrap() + 1.0);
    fs::write(file, old.replace(&was, &now)).unwrap();
    (was, now)
}

fn assert_fails_naming(out: &Output, needles: &[&str]) {
    let err = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stdout: {}\nstderr: {err}", text(&out.stdout));
    for n in needles {
        assert!(err.contains(n), "stderr does not name `{n}`:\n{err}");
    }
    assert!(!text(&out.stdout).contains("OK"), "a failing gate must not print OK");
}

#[test]
fn baseline_lists_fourteen_declared_counts_per_workload() {
    let manifest = fs::read_to_string(repo().join("BENCHMARK.json")).unwrap();
    let baseline = fs::read_to_string(repo().join(BASELINE)).unwrap();
    let rows: Vec<Vec<&str>> = baseline.lines().map(|l| l.split(' ').collect()).collect();
    assert_eq!(rows.len(), 14 * WORKLOADS.len());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), 3, "line {}: `workload metric value`", i + 1);
        assert_eq!(row[0], WORKLOADS[i / 14], "line {}: workload order", i + 1);
        assert!(
            manifest.contains(&format!("{{\"name\": \"{}\", \"unit\"", row[1])),
            "line {}: `{}` is not a BENCHMARK.json metric",
            i + 1,
            row[1]
        );
        assert!(row[2].parse::<f64>().is_ok_and(|v| v >= 0.0), "line {}: value", i + 1);
        assert_eq!(row[1], rows[i % 14][1], "line {}: same metrics for every workload", i + 1);
    }
}

#[test]
fn passes_on_matching_counts_and_forwards_the_seed() {
    let root = sandbox("pass");
    let out = gate(&root, &["--seed", "2"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("exact_gate: OK"));
    let log = fs::read_to_string(root.join("args.log")).unwrap();
    let calls: Vec<&str> = log.lines().collect();
    assert_eq!(calls.len(), WORKLOADS.len(), "one run per workload:\n{log}");
    for (call, w) in calls.iter().zip(WORKLOADS) {
        let want = format!("--workload {w} --seed 2 --seconds 0.5 --trace 1 --out ");
        assert!(call.starts_with(&want), "`{call}` vs `{want}<tmp>`");
        let dir = &call[want.len()..];
        assert!(!Path::new(dir).starts_with(&root), "--out must be a temp dir, got {dir}");
        assert!(!Path::new(dir).exists(), "the temp dir {dir} is removed on exit");
    }
}

#[test]
fn an_edited_baseline_number_fails_naming_workload_and_metric() {
    let root = sandbox("drift");
    let (was, now) = bump(&root.join(BASELINE), "sort_sharded", "shard.rounds_per_job");
    let out = gate(&root, &[]);
    assert_fails_naming(&out, &[&format!("< {now}"), &format!("> {was}"), "--update"]);
    let err = text(&out.stderr);
    assert_eq!(err.lines().filter(|l| l.starts_with("< ")).count(), 1, "only the edit:\n{err}");
    // The other direction — the tree drifts, the baseline stands — reads the same.
    let root = sandbox("drift_tree");
    let (_, now) = bump(&root.join("report.txt"), "mm_serial", "mailbox.allocs_per_job");
    assert_fails_naming(&gate(&root, &[]), &[&format!("> {now}")]);
}

#[test]
fn an_incorrect_failed_truncated_or_silent_run_fails_naming_the_workload() {
    for (case, workload, status, needle) in [
        (
            "incorrect",
            "mm_serial",
            "workload mm_serial: correct=false attempted=5 failed=0\n",
            "correct=false",
        ),
        (
            "failed_jobs",
            "serve_warm",
            "workload serve_warm: correct=true attempted=5 failed=3\n",
            "failed=3",
        ),
        ("silent", "fft_serial", "", "no status line"),
    ] {
        let root = sandbox(case);
        fs::write(root.join(format!("status.{workload}")), status).unwrap();
        assert_fails_naming(&gate(&root, &[]), &[workload, needle]);
        // Not even `--update` takes counts from such a run.
        assert_fails_naming(&gate(&root, &["--update"]), &[workload, needle]);
        let kept = fs::read_to_string(root.join(BASELINE)).unwrap();
        assert_eq!(
            kept,
            fs::read_to_string(repo().join(BASELINE)).unwrap(),
            "{case}: baseline kept"
        );
    }
    let root = sandbox("truncated");
    let report = fs::read_to_string(root.join("report.txt")).unwrap();
    let cut: Vec<&str> =
        report.lines().filter(|l| !l.starts_with("sort_sharded plan.bytes ")).collect();
    fs::write(root.join("report.txt"), cut.join("\n") + "\n").unwrap();
    assert_fails_naming(&gate(&root, &[]), &["sort_sharded", "13 of 14"]);
}

#[test]
fn a_missing_tool_fails_instead_of_skipping() {
    let root = sandbox("no_tools");
    let empty = root.join("empty_path");
    fs::create_dir_all(&empty).unwrap();
    let out = Command::new(bash())
        .arg(root.join("scripts/exact_gate.sh"))
        .env("PATH", &empty)
        .output()
        .unwrap();
    assert_fails_naming(&out, &["required tool", "not found"]);
    assert!(!root.join("args.log").exists(), "no run may start without the tools to read it");
}

#[test]
fn update_rewrites_the_baseline_from_the_runs() {
    let root = sandbox("update");
    bump(&root.join(BASELINE), "serve_warm", "mailbox.allocs_per_job");
    assert_fails_naming(&gate(&root, &[]), &["serve_warm mailbox.allocs_per_job"]);
    let out = gate(&root, &["--update"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(
        fs::read_to_string(root.join(BASELINE)).unwrap(),
        fs::read_to_string(repo().join(BASELINE)).unwrap(),
        "--update writes exactly what the runs report"
    );
    assert!(gate(&root, &[]).status.success());
    assert_eq!(
        gate(&root, &["--frobnicate"]).status.code(),
        Some(2),
        "unknown flags are usage errors"
    );
}
