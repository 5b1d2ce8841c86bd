//! The metric names, units, directions and bounds the code reports under.
//! `BENCHMARK.json` at the repo root is the declaration; a unit test checks
//! that it lists every entry of these tables and nothing else.

/// Seconds one run measures (`--seconds` default and `run_seconds`).
///
/// The issue asks for 30 s and allows no less than 20 s when the driver's
/// total-time cap does not fit 30 s: 92 runs of ~27 s (window + warm-up +
/// set-ups + gate) fit 3420 s, 92 runs of ~38 s do not.
pub const RUN_SECONDS: u64 = 20;

/// `(name, unit, better, bound)` of the end-to-end metrics.
///
/// The issue lists five, bounds 0.10 (0.05 for memory), and rules that a
/// metric which cannot meet its bound in the A/A check is demoted to the
/// per-layer list, the bound never widened. Between identical runs on this
/// host its `jobs_per_sec`, `msgs_per_sec` and `job_p50_us` had an
/// interquartile spread of 9–31 % on `serve_warm` and `sort_sharded` in
/// every set of ten taken, and no other timing statistic did better than
/// 8–25 %; so all three are `drive.*` per-layer metrics, and
/// `peak_rss_mb` keeps the issue's bound.
///
/// `setup_s` is the forced exception. It is CPU-bound time like the rest —
/// medians of consecutive sets of five runs differed by up to 18 % — but
/// the driver's contract requires it among the end-to-end metrics (it
/// cannot be demoted) and says to give it the largest bound, so it has the
/// contract's maximum instead of the issue's 0.10. README.md has the
/// numbers.
pub const END_TO_END: [(&str, &str, &str, f64); 2] =
    [("setup_s", "s", "lower", 0.25), ("peak_rss_mb", "MB", "lower", 0.05)];

/// `(name, unit, better)` of the per-layer metrics, `<module>.<metric>`.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("program.build_ms", "ms", "lower"),
    ("program.init_ms", "ms", "lower"),
    ("program.steps", "count", "lower"),
    ("plan.planned_steps", "count", "higher"),
    ("plan.bytes", "B", "lower"),
    ("plan.capture_ms", "ms", "lower"),
    ("plan.captured_job_us", "us", "lower"),
    ("engine.fused_job_us", "us", "lower"),
    ("engine.planned_job_us", "us", "lower"),
    ("engine.dynamic_job_us", "us", "lower"),
    ("engine.novalidate_job_us", "us", "lower"),
    ("engine.logged_job_us", "us", "lower"),
    ("engine.ns_per_msg", "ns", "lower"),
    ("engine.validate_frac", "frac", "lower"),
    ("engine.serial_planned_frac", "frac", "higher"),
    ("engine.serial_exec_frac", "frac", "higher"),
    ("mailbox.allocs_per_job", "count", "lower"),
    ("mailbox.alloc_kb_per_job", "kB", "lower"),
    ("mailbox.allocs_job_spread", "count", "lower"),
    ("mailbox.arena_peak_kb", "kB", "lower"),
    ("shard.prepare_frac", "frac", "lower"),
    ("shard.exec_frac", "frac", "higher"),
    ("shard.exec_planned_frac", "frac", "higher"),
    ("shard.fused_exec_frac", "frac", "higher"),
    ("shard.commit_frac", "frac", "lower"),
    ("shard.flush_frac", "frac", "lower"),
    ("shard.gather_frac", "frac", "lower"),
    ("shard.merge_frac", "frac", "lower"),
    ("shard.barrier_wait_frac", "frac", "lower"),
    ("shard.span_coverage_frac", "frac", "higher"),
    ("shard.rounds_per_job", "count", "lower"),
    ("shard.spawn_us", "us", "lower"),
    ("shard.w2_over_w1", "ratio", "lower"),
    ("metrics.msgs_per_job", "count", "lower"),
    ("metrics.supersteps_per_job", "count", "lower"),
    ("metrics.fold_us", "us", "lower"),
    ("metrics.eval_us", "us", "lower"),
    ("server.new_us", "us", "lower"),
    ("server.drop_us", "us", "lower"),
    ("server.cold_job_us", "us", "lower"),
    ("server.warm_job_us", "us", "lower"),
    ("server.warm_over_cold", "ratio", "lower"),
    ("server.overhead_us", "us", "lower"),
    ("server.queue_p50_us", "us", "lower"),
    ("server.service_p50_us", "us", "lower"),
    ("server.dispatch_us_per_job", "us", "lower"),
    ("server.epoch_reset_us_per_job", "us", "lower"),
    ("server.cache_hit_frac", "frac", "higher"),
    ("server.cache_evictions", "count", "lower"),
    ("server.pool_reuse_frac", "frac", "higher"),
    ("server.serial_jobs", "count", "lower"),
    ("telemetry.armed_overhead_frac", "frac", "lower"),
    ("reference.job_us", "us", "lower"),
    ("reference.speedup", "ratio", "higher"),
    ("drive.jobs_per_sec", "1/s", "higher"),
    ("drive.msgs_per_sec", "1/s", "higher"),
    ("drive.job_p50_us", "us", "lower"),
    ("drive.job_min_us", "us", "lower"),
    ("drive.job_p90_us", "us", "lower"),
    ("drive.job_p99_us", "us", "lower"),
    ("drive.samples", "count", "higher"),
    ("drive.window_spread_frac", "frac", "lower"),
    ("drive.cpu_us_per_job", "us", "lower"),
    ("drive.trace_overhead_frac", "frac", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, why) in WORKLOADS {
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "workload entry missing: {entry}");
        }
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "end-to-end entry missing: {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "per-layer entry missing: {entry}");
        }
        let declared = json.matches("{\"name\": ").count();
        assert_eq!(declared, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
    }
}
