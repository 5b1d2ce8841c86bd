//! The measured run: cold set-ups, the correctness gate, warm-up and the
//! closed-loop timed window, and the end-to-end metrics computed from them.
//!
//! Load shape (every workload): one generator thread, closed loop, one job
//! outstanding — callers of an in-process library wait for their reply. The
//! generator is blocked while a job runs, so no workload has more than two
//! runnable threads (the width of the widest gang).

use crate::alloc_count;
use crate::procfs;
use crate::stats::{self, Window};
use crate::workloads::{
    build_source, cold_setup, JobOut, Runner, SetupTimes, StateOf, Timed, Workload,
};
use nob_core::{CommTrace, ModelError};
use nob_machine::reference::run_reference;
use nob_machine::{run, JobOptions, JobSpec, NobAlgorithm, RunOptions};
use std::time::{Duration, Instant};

/// Fewest cold set-ups per run; `setup_s` is the median of all of them.
pub const MIN_SETUPS: usize = 15;
/// Most cold set-ups per run (cheap set-ups stop here, not at the budget).
pub const MAX_SETUPS: usize = 1000;
/// Share of the timed window the set-up phase may take once it has its
/// minimum: cheap set-ups are repeated far more than 15 times, because a
/// median of 15 sub-millisecond samples moved 18 % between identical runs,
/// and the host's speed changes for seconds at a time.
pub const SETUP_SHARE: f64 = 0.2;
/// Throughput windows the timed window is cut into.
pub const WINDOWS: usize = 10;
/// Warm-up before the timed window, as a share of it (2 s before 20 s).
pub const WARMUP_SHARE: f64 = 0.1;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was estimated from.
    pub samples: u64,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check held.
    pub correct: bool,
    /// Jobs issued in timed windows.
    pub attempted: u64,
    /// Of those, jobs that returned an error.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false.
    pub error: Option<String>,
}

impl Report {
    /// A failed run: `correct: false`, no metrics.
    pub fn incorrect(error: String) -> Self {
        Report { error: Some(error), ..Report::default() }
    }
}

/// The set-up phase: cold set-ups in a row, each dropped (its server
/// joined) before the next begins — at least `MIN_SETUPS`, then more until
/// `budget` is spent or `MAX_SETUPS` are done. Returns the last one's runner
/// plus every set-up's instants.
pub fn cold_setups<W: Workload>(
    w: &W,
    input: &W::Input,
    budget: Duration,
) -> Result<(Runner<W>, Vec<SetupTimes>), ModelError> {
    let until = Instant::now() + budget;
    let (mut runner, first) = cold_setup(w, input, None)?;
    let mut times = vec![first];
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && Instant::now() < until) {
        drop(runner);
        let (next, t) = cold_setup(w, input, None)?;
        times.push(t);
        runner = next;
    }
    Ok((runner, times))
}

/// Median set-up time in seconds.
pub fn median_setup_secs(times: &[SetupTimes]) -> f64 {
    let secs: Vec<f64> = times.iter().map(|t| (t.end - t.start).as_secs_f64()).collect();
    stats::median(&secs).unwrap_or(0.0)
}

/// What the correctness gate established about one job of the workload.
pub struct Verified<S> {
    /// The job's trace: identical for every input of this size.
    pub trace: CommTrace,
    /// Final states of the job on the run's input.
    pub final_states: Vec<S>,
}

/// The correctness gate, run before any timing.
///
/// 1. Final states, `CommTrace` and message log of the arena engine (the
///    workload's width and options, log collection on) equal the seed
///    engine's (`reference::run_reference`) bit for bit.
/// 2. A job issued exactly as the timed loop issues it returns the same
///    states (and trace, where the driver materialises one); a served job
///    asked for its trace returns the same trace as the direct `run`.
/// 3. The algorithm's own check on the output.
/// 4. Obliviousness: the trace of a second input (seed + 1) is identical —
///    a static program's pattern depends on `n` only.
pub fn verify<W: Workload>(
    w: &W,
    runner: &Runner<W>,
    input: &W::Input,
    states0: &[StateOf<W>],
    seed: u64,
) -> Result<Verified<StateOf<W>>, String> {
    let prog = w.alg().build(w.n());
    let oracle_opts =
        RunOptions { parallel: false, collect_messages: true, ..RunOptions::default() };
    let oracle = run_reference(&prog, states0.to_vec(), &oracle_opts)
        .map_err(|e| format!("reference engine: {e}"))?;

    let logged = RunOptions { collect_messages: true, ..w.run_options() };
    let direct = run(&prog, states0.to_vec(), &logged).map_err(|e| format!("engine: {e}"))?;
    if direct.states != oracle.states {
        return Err("engine states differ from the reference engine".into());
    }
    if direct.trace != oracle.trace {
        return Err("engine trace differs from the reference engine".into());
    }
    if direct.message_log != oracle.message_log {
        return Err("engine message log differs from the reference engine".into());
    }
    // Under the workload's own validation setting too (it is off when served).
    let validated = RunOptions { validate: true, ..w.run_options() };
    let checked =
        run(&prog, states0.to_vec(), &validated).map_err(|e| format!("validated engine: {e}"))?;
    if checked.states != oracle.states || checked.trace != oracle.trace {
        return Err("validated engine run differs from the reference engine".into());
    }

    let as_timed = runner.job(states0.to_vec(), false).out.map_err(|e| format!("job: {e}"))?;
    if as_timed.states != oracle.states {
        return Err("job states differ from the reference engine".into());
    }
    if as_timed.trace.as_ref().is_some_and(|t| *t != oracle.trace) {
        return Err("job trace differs from the reference engine".into());
    }
    if let Runner::Served { server, spec, alg, n } = runner {
        let traced = JobSpec {
            shape: spec.shape,
            opts: JobOptions { want_trace: true, ..spec.opts.clone() },
        };
        let served = server
            .run_job(traced, states0.to_vec(), build_source(alg, *n))
            .map_err(|e| format!("served job: {e}"))?;
        if served.states != direct.states || served.trace.as_ref() != Some(&direct.trace) {
            return Err("served result differs from a direct run".into());
        }
    }

    w.check(input, oracle.states.clone(), seed)?;

    let other = w.init(&w.input(seed.wrapping_add(1)));
    let other = run(&prog, other, &w.run_options()).map_err(|e| format!("second input: {e}"))?;
    if other.trace != oracle.trace {
        return Err("not oblivious: the trace differs between two inputs of one size".into());
    }
    Ok(Verified { trace: oracle.trace, final_states: oracle.states })
}

/// One finished job as the traced run sees it.
pub struct JobRecord<'a, S> {
    /// Position in the timed window (0-based).
    pub index: u64,
    /// The job and the instants around its calls.
    pub timed: &'a Timed<Result<JobOut<S>, ModelError>>,
    /// `(calls, bytes)` allocated process-wide between call and result
    /// (zeros unless the counting allocator is installed).
    pub allocs: (u64, u64),
}

impl<S> JobRecord<'_, S> {
    /// Call → result in µs (`run` return, or `submit` → `JobTicket::wait`
    /// return); `None` for a failed job, which has no latency.
    pub fn latency_us(&self) -> Option<f64> {
        let t = self.timed;
        t.out.is_ok().then(|| (t.end - t.start).as_secs_f64() * 1e6)
    }
}

/// Shape of one closed-loop measurement.
#[derive(Debug, Clone, Copy)]
pub struct LoopPlan {
    /// Length of the timed window.
    pub window: Duration,
    /// Ask each job for its submit/wait boundary instant.
    pub want_mid: bool,
}

/// What the timed window measured. It keeps no per-job log — its footprint
/// is the same however many jobs complete, so `peak_rss_mb` does not grow
/// with throughput; the traced run collects per-job figures in `on_job`.
pub struct LoopStats<S> {
    /// The throughput windows, in time order.
    pub windows: Vec<Window>,
    /// Jobs issued.
    pub attempted: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// CPU time (user + system, all threads) used during the window.
    pub cpu: Duration,
    /// Final states of the last successful job.
    pub last_states: Option<Vec<S>>,
}

impl<S> LoopStats<S> {
    /// Median over the windows of jobs completed / window length. A failed
    /// job completes nothing and a stalled window counts as rate 0, so
    /// errors and stalls lower it.
    pub fn jobs_per_sec(&self) -> f64 {
        stats::window_median(&self.windows).unwrap_or(0.0)
    }
}

/// Issues jobs back to back for `share · WARMUP_SHARE`, unrecorded, so
/// arenas, caches and the branch predictor are in their steady state when
/// the timed window opens.
pub fn warm_up<W: Workload>(runner: &Runner<W>, states0: &[StateOf<W>], window: Duration) {
    let until = Instant::now() + window.mul_f64(WARMUP_SHARE);
    while Instant::now() < until {
        std::hint::black_box(runner.job(states0.to_vec(), false).out.is_ok());
    }
}

/// The timed window: jobs back to back, one outstanding, each on a fresh
/// clone of `states0` (cloned between jobs — inside the throughput window,
/// outside the job's latency). `on_job` sees every timed job.
pub fn closed_loop<W: Workload>(
    runner: &Runner<W>,
    states0: &[StateOf<W>],
    plan: LoopPlan,
    mut on_job: impl FnMut(JobRecord<'_, StateOf<W>>),
) -> LoopStats<StateOf<W>> {
    let slice = plan.window / WINDOWS as u32;
    let mut stats = LoopStats {
        windows: Vec::with_capacity(WINDOWS),
        attempted: 0,
        failed: 0,
        cpu: Duration::ZERO,
        last_states: None,
    };
    let cpu0 = procfs::cpu_time();
    let origin = Instant::now();
    let (mut win_start, mut in_window) = (origin, 0u64);
    while stats.windows.len() < WINDOWS {
        let states = states0.to_vec();
        let a0 = alloc_count::snapshot();
        let timed = runner.job(states, plan.want_mid);
        let a1 = alloc_count::snapshot();
        on_job(JobRecord {
            index: stats.attempted,
            timed: &timed,
            allocs: (a1.0 - a0.0, a1.1 - a0.1),
        });
        stats.attempted += 1;
        let end = timed.end;
        match timed.out {
            Ok(out) => {
                stats.last_states = Some(out.states);
                in_window += 1;
            }
            Err(_) => stats.failed += 1,
        }
        // A window closes at the first completion at or after its nominal
        // end; nominal windows a stalled job skipped entirely stay empty.
        let nominal_end = |k: usize| origin + slice * (k as u32 + 1);
        if end >= nominal_end(stats.windows.len()) {
            stats.windows.push(Window { jobs: in_window, secs: (end - win_start).as_secs_f64() });
            (win_start, in_window) = (end, 0);
            while stats.windows.len() < WINDOWS && end >= nominal_end(stats.windows.len()) {
                stats.windows.push(Window { jobs: 0, secs: 0.0 });
            }
        }
    }
    if let (Some(c0), Some(c1)) = (cpu0, procfs::cpu_time()) {
        stats.cpu = c1.saturating_sub(c0);
    }
    stats
}

/// Everything up to the timed window that the plain and the traced run
/// share: input, cold set-ups, initial states and the correctness gate.
pub struct Prepared<W: Workload> {
    /// The warmed runner of the last cold set-up.
    pub runner: Runner<W>,
    /// Every cold set-up's instants.
    pub setups: Vec<SetupTimes>,
    /// The run's input.
    pub input: W::Input,
    /// Initial states of every job.
    pub states0: Vec<StateOf<W>>,
    /// The gate's findings.
    pub verified: Verified<StateOf<W>>,
}

/// Set-up phase (at most `budget` beyond its minimum) and correctness gate.
pub fn prepare<W: Workload>(w: &W, seed: u64, budget: Duration) -> Result<Prepared<W>, String> {
    let input = w.input(seed);
    let (runner, setups) = cold_setups(w, &input, budget).map_err(|e| format!("set-up: {e}"))?;
    let states0 = w.init(&input);
    let verified = verify(w, &runner, &input, &states0, seed)?;
    Ok(Prepared { runner, setups, input, states0, verified })
}

/// The end-to-end run: telemetry disarmed, system allocator, one line of
/// metrics.
///
/// Only what repeats between identical runs on this host is reported here:
/// the median cold set-up and the peak footprint of the timed window. The
/// window's timings (`drive.jobs_per_sec`, `drive.job_p50_us`, …) moved by
/// more than their 0.10 bound between identical runs and are per-layer
/// metrics of the traced run; README.md has the measurements.
pub fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> Report {
    let window = Duration::from_secs_f64(seconds);
    let p = match prepare(w, seed, window.mul_f64(SETUP_SHARE)) {
        Ok(p) => p,
        Err(e) => return Report::incorrect(e),
    };
    // From here on VmHWM is the footprint of serving jobs, not of the
    // oracle and the torn-down set-ups before it.
    procfs::reset_peak_rss();
    let plan = LoopPlan { window, want_mid: false };
    warm_up(&p.runner, &p.states0, plan.window);
    let stats = closed_loop(&p.runner, &p.states0, plan, |_| {});
    let peak_kb = procfs::peak_rss_kb().unwrap_or(0);

    let error = (stats.last_states.as_ref() != Some(&p.verified.final_states))
        .then(|| "the last timed job's states differ from the verified result".to_string());
    Report {
        correct: error.is_none(),
        attempted: stats.attempted,
        failed: stats.failed,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median_setup_secs(&p.setups),
                unit: "s",
                samples: p.setups.len() as u64,
            },
            Metric { name: "peak_rss_mb", value: peak_kb as f64 / 1024.0, unit: "MB", samples: 1 },
        ],
        error,
    }
}
