//! The traced run: per-layer metrics, measured from outside the program.
//!
//! Three sources only: timing calls into public functions under different
//! options, the program's own `TelemetrySink` (armed in this run alone),
//! and the counting allocator of the `bench_traced` binary. End-to-end
//! numbers never come from this run.
//!
//! Names are `<module>.<metric>`; `manifest::PER_LAYER` lists them all. A
//! metric that a workload's driver does not have (`server.*` on a direct
//! workload, `shard.*_frac` on one worker) reads 0 with 0 samples.

use crate::alloc_count;
use crate::drive::{closed_loop, prepare, warm_up, LoopPlan, Metric, Report, SETUP_SHARE};
use crate::manifest::PER_LAYER;
use crate::spans::SpanLog;
use crate::stats;
use crate::workloads::{cold_setup, Driver, MsgOf, SetupTimes, StateOf, Workload};
use nob_core::machines::standard_suite;
use nob_core::telemetry::{Site, TelemetrySink};
use nob_core::CommTrace;
use nob_machine::reference::run_reference;
use nob_machine::{run, JobServer, NobAlgorithm, Program, RunOptions, ServerConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` the untraced comparison window takes.
const UNTRACED_SHARE: f64 = 0.2;
/// Share of `--seconds` the traced window takes (10 s of 20 s).
const TRACED_SHARE: f64 = 0.5;
/// Share of `--seconds` each option-variant probe may take.
const PROBE_SHARE: f64 = 0.03;
/// Repetitions of the cheap fixed-count probes (server new/drop, builds).
const REPS: usize = 15;
/// Jobs on the second input that must reproduce the exact per-job counts.
const OBLIVIOUS_JOBS: u64 = 3;

/// One change to a workload's `RunOptions`: an execution-tier variant.
type Tweak = fn(&mut RunOptions);

/// `name → (value, samples)`.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(PER_LAYER.iter().any(|m| m.0 == name), "`{name}` is not in manifest::PER_LAYER");
        self.0.insert(name, (value, samples));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0)
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric { name, value, unit, samples }
            })
            .collect()
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median µs of `f`, repeated until `budget` is spent (at least 3 timed
/// calls after one discarded warm-up call).
fn probe(
    budget: Duration,
    mut f: impl FnMut() -> Result<Duration, String>,
) -> Result<(f64, u64), String> {
    f()?;
    let until = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < until {
        samples.push(us(f()?));
    }
    Ok((stats::median(&samples).unwrap_or(0.0), samples.len() as u64))
}

/// Times one direct `run` of `prog` (state clone outside the timing).
fn time_run<S: Send + Clone, M: Send>(
    prog: &Program<S, M>,
    states0: &[S],
    opts: &RunOptions,
) -> Result<Duration, String> {
    let states = states0.to_vec();
    let t0 = Instant::now();
    let out = run(prog, states, opts);
    let dt = t0.elapsed();
    std::hint::black_box(out.map_err(|e| format!("probe run: {e}"))?);
    Ok(dt)
}

/// A one-superstep, no-message program: what is left of a sharded run when
/// the work is taken away — gang spawn, one pass, join.
fn spawn_probe(budget: Duration) -> Result<(f64, u64), String> {
    let mut toy: Program<u64, u64> = Program::new(128, 128);
    toy.step(0, "touch", |st, _, _, _| *st += 1);
    let states = vec![0u64; 128];
    let at = |workers| {
        let opts = RunOptions { workers: Some(workers), ..RunOptions::default() };
        probe(budget, || time_run(&toy, &states, &opts))
    };
    let (serial, _) = at(1)?;
    let (sharded, n) = at(2)?;
    Ok(((sharded - serial).max(0.0), n))
}

/// Cost of the paper-side evaluation of a finished run's trace.
fn fold_and_eval(trace: &CommTrace, spans: &mut SpanLog, layers: &mut Layers) {
    let folds: Vec<usize> = (1..=trace.v().ilog2()).map(|j| 1usize << j).collect();
    let p_eval = trace.v().min(64);
    let machines = standard_suite(p_eval);
    let (mut fold_us, mut eval_us) = (Vec::new(), Vec::new());
    for rep in 0..REPS {
        let t0 = Instant::now();
        for &p in &folds {
            std::hint::black_box(trace.fold(p));
        }
        let t1 = Instant::now();
        std::hint::black_box(trace.comm_complexity(p_eval, 1.0));
        for m in &machines {
            std::hint::black_box(trace.comm_time(m));
        }
        let t2 = Instant::now();
        if rep == 0 {
            spans.record("fold", t0, t1, None, None);
            spans.record("eval", t1, t2, None, None);
        }
        fold_us.push(us(t1 - t0));
        eval_us.push(us(t2 - t1));
    }
    layers.set("metrics.fold_us", stats::median(&fold_us).unwrap_or(0.0), REPS as u64);
    layers.set("metrics.eval_us", stats::median(&eval_us).unwrap_or(0.0), REPS as u64);
}

/// The traced run of one workload. Writes `<out>/<name>/layers.json` and
/// `trace.json`; the returned report carries every per-layer metric.
pub fn traced<W: Workload>(w: &W, name: &str, seed: u64, seconds: f64, out: &Path) -> Report {
    match traced_inner(w, name, seed, seconds, out) {
        Ok(r) => r,
        Err(e) => Report::incorrect(e),
    }
}

fn traced_inner<W: Workload>(
    w: &W,
    name: &str,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<Report, String> {
    let mut spans = SpanLog::default();
    let mut layers = Layers::default();
    let width = w.driver().width();
    let served = matches!(w.driver(), Driver::Served { .. });
    let budget = Duration::from_secs_f64(seconds * PROBE_SHARE);

    // --- set-up phase and gate, exactly as the end-to-end run does them ----
    let p = prepare(w, seed, Duration::from_secs_f64(seconds * SETUP_SHARE))?;
    for t in &p.setups {
        let id = spans.record("setup", t.start, t.end, None, None);
        if t.built > t.start {
            spans.record("build", t.start, t.built, Some(id), None);
        }
        spans.record("init", t.built, t.inited, Some(id), None);
        if t.served > t.inited {
            spans.record("server_new", t.inited, t.served, Some(id), None);
        }
        spans.record("first_job", t.served, t.end, Some(id), None);
    }
    let med = |f: &dyn Fn(&SetupTimes) -> Duration| {
        stats::median(&p.setups.iter().map(|t| us(f(t))).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let n_setups = p.setups.len() as u64;
    layers.set("program.init_ms", med(&|t| t.inited - t.built) / 1e3, n_setups);
    if served {
        layers.set("server.cold_job_us", med(&|t| t.end - t.served), n_setups);
    }

    // --- program and plan ------------------------------------------------------
    let prog = w.alg().build(w.n());
    if served {
        // A served set-up builds inside its first job; time the build alone.
        let builds: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(w.alg().build(w.n()));
                us(t0.elapsed()) / 1e3
            })
            .collect();
        layers.set("program.build_ms", stats::median(&builds).unwrap_or(0.0), REPS as u64);
    } else {
        layers.set("program.build_ms", med(&|t| t.built - t.start) / 1e3, n_setups);
    }
    layers.set("program.steps", prog.steps().len() as f64, 1);
    layers.set("plan.planned_steps", prog.planned_steps() as f64, 1);
    layers.set("plan.bytes", prog.plan_bytes() as f64, 1);

    let mut captured = w.alg().build(w.n());
    let t0 = Instant::now();
    let added = captured.capture_plans(p.states0.clone()).map_err(|e| format!("capture: {e}"))?;
    layers.set("plan.capture_ms", us(t0.elapsed()) / 1e3, 1);
    let other_states = w.init(&w.input(seed.wrapping_add(1)));
    let added_other = w
        .alg()
        .build(w.n())
        .capture_plans(other_states.clone())
        .map_err(|e| format!("capture: {e}"))?;
    if added != added_other {
        return Err(format!(
            "not oblivious: {added} vs {added_other} plans captured on two inputs"
        ));
    }

    // --- engine: the same job under each execution tier ---------------------
    let base = w.run_options();
    let timed = |prog: &Program<_, _>, tweak: Tweak| {
        let mut opts = base.clone();
        tweak(&mut opts);
        probe(budget, || time_run(prog, &p.states0, &opts))
    };
    let (fused, n_fused) = timed(&prog, |_| {})?;
    let msgs = p.verified.trace.total_messages();
    layers.set("engine.fused_job_us", fused, n_fused);
    layers.set("engine.ns_per_msg", fused * 1e3 / msgs.max(1) as f64, n_fused);
    let tiers: [(&'static str, Tweak); 3] = [
        ("engine.planned_job_us", |o| o.fuse = false),
        ("engine.dynamic_job_us", |o| o.use_plans = false),
        ("engine.logged_job_us", |o| o.collect_messages = true),
    ];
    for (metric, tweak) in tiers {
        let (v, n) = timed(&prog, tweak)?;
        layers.set(metric, v, n);
    }
    let (novalidate, n) = timed(&prog, |o| o.validate = false)?;
    let validated = if base.validate { fused } else { timed(&prog, |o| o.validate = true)?.0 };
    layers.set("engine.novalidate_job_us", novalidate, n);
    layers.set("engine.validate_frac", 1.0 - novalidate / validated, n);
    let (v, n) = timed(&captured, |_| {})?;
    layers.set("plan.captured_job_us", v, n);
    // The job at the other width: 2 workers for a serial workload, 1 for a
    // two-wide one.
    let (other, n) = match width {
        1 => timed(&prog, |o| o.workers = Some(2))?,
        _ => timed(&prog, |o| o.workers = Some(1))?,
    };
    let (w2, w1) = if width == 1 { (other, fused) } else { (fused, other) };
    layers.set("shard.w2_over_w1", w2 / w1, n);
    let (v, n) = spawn_probe(budget)?;
    layers.set("shard.spawn_us", v, n);

    let oracle_opts =
        RunOptions { parallel: false, validate: base.validate, ..RunOptions::default() };
    let (reference, n) = probe(budget, || {
        let states = p.states0.clone();
        let t0 = Instant::now();
        let out = run_reference(&prog, states, &oracle_opts);
        let dt = t0.elapsed();
        std::hint::black_box(out.map_err(|e| format!("reference engine: {e}"))?);
        Ok(dt)
    })?;
    layers.set("reference.job_us", reference, n);
    layers.set("reference.speedup", reference / fused, n);

    // --- metrics: exact counts, and the cost of evaluating a trace ----------
    layers.set("metrics.msgs_per_job", msgs as f64, 1);
    layers.set("metrics.supersteps_per_job", p.verified.trace.superstep_count() as f64, 1);
    fold_and_eval(&p.verified.trace, &mut spans, &mut layers);

    // --- server: life-cycle costs outside the steady state -------------------
    if let Driver::Served { shards } = w.driver() {
        let (mut new_us, mut drop_us) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let t0 = Instant::now();
            let server: JobServer<StateOf<W>, MsgOf<W>> =
                JobServer::new(ServerConfig::with_shards(shards))
                    .map_err(|e| format!("server: {e}"))?;
            let t1 = Instant::now();
            drop(server);
            new_us.push(us(t1 - t0));
            drop_us.push(us(t1.elapsed()));
        }
        layers.set("server.new_us", stats::median(&new_us).unwrap_or(0.0), REPS as u64);
        layers.set("server.drop_us", stats::median(&drop_us).unwrap_or(0.0), REPS as u64);
    }

    // --- untraced window: the comparison base for every overhead figure -----
    let untraced_plan =
        LoopPlan { window: Duration::from_secs_f64(seconds * UNTRACED_SHARE), want_mid: false };
    warm_up(&p.runner, &p.states0, untraced_plan.window);
    let mut untraced_us = Vec::new();
    let untraced = closed_loop(&p.runner, &p.states0, untraced_plan, |job| {
        untraced_us.extend(job.latency_us());
    });
    let untraced_p50 = stats::median(&untraced_us).unwrap_or(0.0);
    if served {
        let n = untraced_us.len() as u64;
        layers.set("server.warm_job_us", untraced_p50, n);
        layers.set("server.warm_over_cold", untraced_p50 / layers.get("server.cold_job_us"), n);
        layers.set("server.overhead_us", untraced_p50 - fused, n);
    }
    drop(p.runner);

    // --- traced window: telemetry armed, allocations counted, spans kept ----
    let sink = Arc::new(TelemetrySink::for_workers(width));
    let (armed, _) = cold_setup(w, &p.input, Some(Arc::clone(&sink)))
        .map_err(|e| format!("armed set-up: {e}"))?;
    let traced_plan =
        LoopPlan { window: Duration::from_secs_f64(seconds * TRACED_SHARE), want_mid: true };
    warm_up(&armed, &p.states0, traced_plan.window);
    sink.reset();
    let (mut lat_us, mut allocs, mut alloc_bytes, mut queue_us, mut service_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let traced = closed_loop(&armed, &p.states0, traced_plan, |job| {
        lat_us.extend(job.latency_us());
        let t = job.timed;
        let id = spans.record("job", t.start, t.end, None, Some(job.index));
        match t.mid {
            Some(mid) => {
                spans.record("submit", t.start, mid, Some(id), Some(job.index));
                spans.record("wait", mid, t.end, Some(id), Some(job.index));
            }
            None => {
                spans.record("run", t.start, t.end, Some(id), Some(job.index));
            }
        }
        allocs.push(job.allocs.0 as f64);
        alloc_bytes.push(job.allocs.1 as f64);
        if let Ok(out) = &t.out {
            queue_us.extend(out.queue_wait.map(us));
            service_us.extend(out.service.map(us));
        }
    });
    let run_report = sink.run_report();
    let server_report = sink.server_report();
    let jobs = traced.attempted;
    let ok_jobs = lat_us.len() as u64;

    // The exact per-job counts must not depend on the input.
    let allocs_per_job = stats::median(&allocs).unwrap_or(0.0);
    let rounds_total = run_report.count(Site::ShardBarrierWait);
    for _ in 0..OBLIVIOUS_JOBS {
        let states = other_states.clone();
        let a0 = alloc_count::snapshot().0;
        let t = armed.job(states, true);
        let a1 = alloc_count::snapshot().0;
        t.out.map_err(|e| format!("second input: {e}"))?;
        if (a1 - a0) as f64 != allocs_per_job {
            return Err(format!(
                "not oblivious: {} allocations on a second input, {allocs_per_job} on the first",
                a1 - a0
            ));
        }
    }
    let rounds_other = sink.run_report().count(Site::ShardBarrierWait) - rounds_total;
    if rounds_other * jobs != rounds_total * OBLIVIOUS_JOBS {
        return Err(format!(
            "not oblivious: {rounds_other} barrier rounds in {OBLIVIOUS_JOBS} jobs on a second input, {rounds_total} in {jobs} on the first"
        ));
    }

    // --- mailbox: allocation behaviour per job -----------------------------------
    let fmax = |xs: &[f64]| xs.iter().copied().fold(f64::MIN, f64::max);
    let fmin = |xs: &[f64]| xs.iter().copied().fold(f64::MAX, f64::min);
    layers.set("mailbox.allocs_per_job", allocs_per_job, jobs);
    layers.set(
        "mailbox.alloc_kb_per_job",
        stats::median(&alloc_bytes).unwrap_or(0.0) / 1024.0,
        jobs,
    );
    layers.set("mailbox.allocs_job_spread", fmax(&allocs) - fmin(&allocs), jobs);
    layers.set("mailbox.arena_peak_kb", server_report.arena_bytes as f64 / 1024.0, 1);

    // --- executor phase shares: Σ per-worker span / (workers × wall) ---------
    let wall_ns = lat_us.iter().sum::<f64>() * 1e3;
    let share = |site: Site| run_report.nanos(site) as f64 / (width as f64 * wall_ns);
    layers.set("engine.serial_planned_frac", share(Site::SerialPlanned), ok_jobs);
    layers.set("engine.serial_exec_frac", share(Site::SerialExec), ok_jobs);
    let shard_sites = [
        ("shard.prepare_frac", Site::ShardPrepare),
        ("shard.exec_frac", Site::ShardExec),
        ("shard.exec_planned_frac", Site::ShardExecPlanned),
        ("shard.fused_exec_frac", Site::ShardFusedExec),
        ("shard.commit_frac", Site::ShardCommit),
        ("shard.flush_frac", Site::ShardFlush),
        ("shard.gather_frac", Site::ShardGather),
        ("shard.merge_frac", Site::ShardMerge),
        ("shard.barrier_wait_frac", Site::ShardBarrierWait),
    ];
    let mut coverage = 0.0;
    for (metric, site) in shard_sites {
        layers.set(metric, share(site), run_report.count(site));
        coverage += share(site);
    }
    layers.set("shard.span_coverage_frac", coverage, ok_jobs);
    layers.set("shard.rounds_per_job", rounds_total as f64 / (width as u64 * jobs) as f64, jobs);

    // --- server: steady-state counters of the armed server ---------------------
    if served {
        let per = |nanos: u64, count: u64| {
            if count == 0 {
                0.0
            } else {
                nanos as f64 / count as f64 / 1e3
            }
        };
        let r = &server_report;
        layers.set(
            "server.queue_p50_us",
            stats::median(&queue_us).unwrap_or(0.0),
            queue_us.len() as u64,
        );
        layers.set(
            "server.service_p50_us",
            stats::median(&service_us).unwrap_or(0.0),
            service_us.len() as u64,
        );
        layers.set(
            "server.dispatch_us_per_job",
            per(r.dispatch_nanos, r.dispatch_count),
            r.dispatch_count,
        );
        layers.set(
            "server.epoch_reset_us_per_job",
            per(r.epoch_reset_nanos, r.epoch_reset_count),
            r.epoch_reset_count,
        );
        layers.set(
            "server.cache_hit_frac",
            r.cache_hits as f64 / (r.cache_hits + r.cache_misses).max(1) as f64,
            r.jobs,
        );
        layers.set("server.cache_evictions", r.cache_evictions as f64, r.jobs);
        layers.set(
            "server.pool_reuse_frac",
            r.pool_reuses as f64 / (r.dispatch_count * width as u64).max(1) as f64,
            r.jobs,
        );
        layers.set("server.serial_jobs", r.serial_jobs as f64, r.jobs);
    }

    // --- the measurement itself ------------------------------------------------
    let traced_p50 = stats::median(&lat_us).unwrap_or(0.0);
    let n_windows = traced.windows.len() as u64;
    layers.set("telemetry.armed_overhead_frac", traced_p50 / untraced_p50 - 1.0, ok_jobs);
    layers.set("drive.jobs_per_sec", traced.jobs_per_sec(), n_windows);
    layers.set("drive.msgs_per_sec", traced.jobs_per_sec() * msgs as f64, n_windows);
    layers.set("drive.job_p50_us", traced_p50, ok_jobs);
    layers.set("drive.job_min_us", fmin(&lat_us), ok_jobs);
    layers.set("drive.job_p90_us", stats::percentile(&lat_us, 90.0).unwrap_or(0.0), ok_jobs);
    layers.set("drive.job_p99_us", stats::percentile(&lat_us, 99.0).unwrap_or(0.0), ok_jobs);
    layers.set("drive.samples", ok_jobs as f64, ok_jobs);
    layers.set(
        "drive.window_spread_frac",
        stats::window_spread(&traced.windows).unwrap_or(0.0),
        n_windows,
    );
    layers.set("drive.cpu_us_per_job", us(traced.cpu) / jobs.max(1) as f64, jobs);
    let overhead = untraced.jobs_per_sec() / traced.jobs_per_sec() - 1.0;
    layers.set("drive.trace_overhead_frac", overhead, n_windows);

    let error = (traced.last_states.as_ref() != Some(&p.verified.final_states))
        .then(|| "the last traced job's states differ from the verified result".to_string());
    let report = Report {
        correct: error.is_none(),
        attempted: traced.attempted,
        failed: traced.failed,
        metrics: layers.into_metrics(),
        error,
    };

    let dir = out.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let telemetry =
        format!("{{\"run\":{},\"server\":{}}}", run_report.to_json(), server_report.to_json());
    std::fs::write(dir.join("layers.json"), layers_json(name, seed, seconds, &report, &telemetry))
        .and_then(|()| std::fs::write(dir.join("trace.json"), spans.to_json()))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(report)
}

/// The `layers.json` document: every per-layer metric with unit and sample
/// count, plus the program's own telemetry reports the shares came from.
fn layers_json(name: &str, seed: u64, seconds: f64, report: &Report, telemetry: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":\"nob-benchmark-layers-v1\",\"workload\":\"{name}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"correct\":{},\"attempted\":{},\"failed\":{},\"layers\":{{",
        report.correct, report.attempted, report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i > 0 { ",\n" } else { "" };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\",\"samples\":{}}}",
            m.name, m.unit, m.samples
        );
    }
    let _ = writeln!(out, "\n}},\"telemetry\":{telemetry}}}");
    out
}
