//! The superstep execution engine: full-granularity and folded runs on
//! zero-allocation mailbox arenas, executed serially or by the sharded
//! executor's gang.
//!
//! # Architecture: shards over double-buffered mailbox arenas
//!
//! The legacy engine (preserved as [`crate::reference`]) materialized, per
//! superstep, one `Vec` outbox per VP, one `(src, dst, 1)` edge per message
//! and `O(v)` metric scratch per fold level. This engine replaces all of
//! that with aggregate, cache-friendly structures that are allocated once
//! per run and recycled, so **steady-state supersteps perform zero heap
//! allocations** on the serial path:
//!
//! * **Two mailbox arenas per shard** (`mailbox::Arena`): each is a
//!   contiguous message slab plus an offset table giving every VP's inbox
//!   range. Per superstep the engine *reads* the previous superstep's
//!   messages from one arena while this superstep's sends are sorted into
//!   the other; then the two swap roles. Slabs only ever grow to the
//!   high-water message volume.
//! * **Send staging** (`mailbox::ChunkStage`): each shard appends its
//!   VPs' `(dst, envelope)` pairs to a recycled flat buffer with per-VP end
//!   markers, consumed by the routing pass.
//! * **Streaming metrics** ([`nob_core::metrics::DegreeCounters`]): a single
//!   pass over the staged messages validates the cluster constraint,
//!   accumulates per-fold-level degree counters (epoch-stamped, with running
//!   maxima, so emitting a superstep record is `O(log v)`), counts per
//!   destination for the scatter, and optionally appends to the message
//!   log — one loop where the legacy engine made `log v + 3` passes.
//!
//! # Execution paths
//!
//! * **Planned** (per superstep): supersteps that declared their pattern
//!   as an oblivious route ([`Program::step_oblivious`]) skip the whole
//!   staged pipeline — one counting pass over the compiled
//!   [`crate::plan::StepPlan`] sizes the write arena, VP closures write
//!   payloads *directly* into their destination slots (run by the step's
//!   chunk kernel: one call per chunk, the body and the route inlined —
//!   the route names each payload's destination), and the superstep
//!   record is the plan's precomputed metrics (`O(log v)`), with the
//!   cluster constraint proven once at build time. On the sharded path
//!   the destination slot may live in a *peer shard's* arena: each worker
//!   pre-partitions its write arena by (source shard, destination VP) and
//!   publishes a window peers write through, collapsing the superstep to
//!   a single barrier with no lane staging and no merge.
//! * **Serial** (1 shard): the whole machine is one shard; the loop above
//!   runs inline with a serial counting-sort scatter and allocates nothing
//!   in steady state (proven by `tests/allocation.rs`).
//! * **Sharded** (`crate::shard`): `n` persistent workers each own a
//!   contiguous VP shard — its states, arenas, staging and a private
//!   [`DegreeCounters`] — and exchange cross-shard messages of dynamic
//!   supersteps through lanes between the shards a superstep's label lets
//!   talk. The inter-superstep barrier is a
//!   per-lane handoff plus an `O(shards · log v)` counter merge instead
//!   of a global counting sort (planned supersteps keep one barrier and
//!   merge nothing). [`run_folded`] is the degenerate case *shard = fold*
//!   (capped by the worker budget), which unifies the two execution modes
//!   over one code path.
//!
//! The shard count derives from [`RunOptions::workers`] or, when that is
//! `None`, from the `NOB_THREADS` environment variable or else the visible
//! CPUs; every width produces **bit-for-bit identical** states, traces and
//! message logs — enforced by the differential property suites in
//! `tests/engine_properties.rs` and `tests/engine_equivalence.rs`.
//!
//! # What a serial run allocates
//!
//! A static program's tiers are known before it runs, so the serial loop
//! decides once, in one walk over the schedule before the first superstep,
//! which of them this `(program, options)` pair can execute, and allocates
//! only those (`v` VPs, message type `M`):
//!
//! * **always** — the two arenas (a `4·(v + 1)`-byte offset table each; each
//!   slab reserved once at its largest planned superstep), the cursor table
//!   (`4·v`), the seen-bitmap (`v / 8`);
//! * **dynamic tier** — the streaming [`DegreeCounters`] (`≈ 48·v` bytes at
//!   full granularity) and the staging end markers (`4·v`; the staging
//!   buffer itself grows to the largest dynamic superstep): iff some step
//!   can reach the dynamic body — plans are off, the step has no plan, or
//!   its plan carries a compile fault (which a validated run reports and a
//!   non-validated one executes dynamically);
//! * **per-destination counts** (`4·v`) — iff the dynamic tier is in, or
//!   some planned step must count its route because fusion is off or its
//!   plan has no [`crate::plan::PlanLayout`].
//!
//! Deciding up front rather than at the first dynamic step keeps every
//! allocation out of the superstep loop (`tests/allocation.rs`). The sharded
//! executor does not take a census yet: its worker kits always carry their
//! shard's counters.
//!
//! # Invariants
//!
//! * **Delivery order** is ascending source VP, then send order — identical
//!   to the legacy nested delivery loop (the counting sort is stable, and
//!   shard lanes are drained in ascending source-shard order), so
//!   `CommTrace` contents, message logs and final states are bit-for-bit
//!   identical to the reference engine.
//! * **Metrics are send-phase metrics**: dummy messages count toward every
//!   degree (the paper's wiseness device) but are never delivered.

use crate::mailbox::{route_serial, Arena, ChunkStage, DirectOut, DirectSink};
use crate::plan::{message_fault, PlanLayout, StepPlan};
use crate::program::{Ctx, Envelope, Program};
use crate::shard::Executor;
use nob_core::fault::FaultPlan;
use nob_core::metrics::{CommTrace, DegreeCounters, TraceBuilder};
use nob_core::model::log2_exact;
use nob_core::telemetry::{Site, TelemetrySink};
use nob_core::ModelError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Execute the machine's shards in parallel on a gang of workers
    /// (default: `true`; the width is [`RunOptions::workers`]). `false`
    /// runs the serial loop on the calling thread, as `workers: Some(1)`
    /// does; so does a width that resolves to 1 (see the module docs).
    pub parallel: bool,
    /// Check the run against the model (default: `true`). Two checks
    /// depend on it: the i-superstep cluster constraint on every message
    /// of a *dynamic* superstep, and the report of a declared route that
    /// failed its compile-time proof — with it the run fails with that
    /// fault, without it the step runs on the dynamic path.
    ///
    /// A *planned* superstep's checks do not depend on it: its route was
    /// proven cluster-legal once, at compile time, its destinations come
    /// from that route, and a body that sends one payload more or fewer
    /// than the route declares is an exact [`ModelError::PlanMismatch`]
    /// either way.
    pub validate: bool,
    /// Keep the raw per-superstep message log — `(src VP, dst VP)` for
    /// [`run`], `(src proc, dst proc)` of processor-external messages for
    /// [`run_folded`] — needed by the ascend–descend protocol rewriter;
    /// costs memory proportional to the total message volume.
    pub collect_messages: bool,
    /// Pins the number of executor shards (persistent workers). `None`
    /// derives the width from the `NOB_THREADS` environment variable or
    /// else the visible CPUs (no thread is spawned to find out); `Some(1)`
    /// forces the serial path. Values are clamped to a power of two no
    /// larger than the metric granularity of the run (and a hard ceiling
    /// of 256 OS threads). Ignored when [`RunOptions::parallel`] is
    /// `false`, which always takes the serial path.
    pub workers: Option<usize>,
    /// Execute supersteps that declared an oblivious route
    /// ([`Program::step_oblivious`]) from their compiled [`crate::plan::StepPlan`]:
    /// analytic metrics, compile-proven cluster constraint, and the
    /// direct-write scatter (default: `true`). Disabling runs every step on
    /// the dynamic path, where a declared body's sends are staged with the
    /// route's destinations and dummies — results are bit-for-bit identical
    /// either way (enforced by the differential suites), a body that breaks
    /// its route fails identically too, and the flag exists for
    /// benchmarking and for differential testing itself.
    pub use_plans: bool,
    /// Run planned supersteps on the *fused* tier where the plan proves it
    /// safe (default: `true`). A planned step whose payloads stay in one
    /// arena sizes it straight from the plan's `O(1)` layout summary
    /// instead of re-enumerating the route. On the sharded path, a planned
    /// step whose payloads are proven shard-local runs as the serial
    /// planned step on each worker's own shard — no window, no cross-shard
    /// write and **no barrier at all** (consecutive such steps form a
    /// zero-barrier pipeline). Results are bit-for-bit identical either way
    /// (enforced by the differential suites); `false` reproduces the
    /// one-barrier protocol exactly, for benchmarking and differential
    /// testing.
    pub fuse: bool,
    /// Deterministic fault-injection plan (default: `None`). When armed,
    /// the executors consult it at every instrumented phase boundary; when
    /// absent the cost is one `Option` discriminant test per phase — never
    /// anything per message — so the hot path is unchanged (pinned by
    /// `tests/allocation.rs`).
    pub faults: Option<Arc<FaultPlan>>,
    /// Barrier watchdog for the sharded executor (default: `None` — wait
    /// forever, exactly the pre-watchdog behavior). When set, a worker
    /// waiting longer than this at the gang barrier poisons it: every
    /// current and future wait returns an error, the gang drains, and the
    /// run fails with [`ModelError::GangStall`] instead of deadlocking.
    /// Covers workers that are slow, descheduled, or lost mid-protocol; a
    /// closure that *never* returns still wedges its OS thread (the gang's
    /// scope must collect every worker before the run can return), which no
    /// in-process watchdog can recover — the documented limit of this
    /// mechanism.
    pub stall_timeout: Option<Duration>,
    /// Phase-level telemetry sink (default: `None`). When armed, the
    /// executors record per-worker phase spans and barrier waits into the
    /// sink's pre-sized slots ([`nob_core::telemetry`]); when absent the
    /// cost is one `Option` discriminant test per phase and `Instant::now`
    /// is never called — the [`RunOptions::faults`] zero-cost rule, pinned
    /// by the same allocation tests and the `nob-lint` clock gate (NL007).
    pub telemetry: Option<Arc<TelemetrySink>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            parallel: true,
            validate: true,
            collect_messages: false,
            workers: None,
            use_plans: true,
            fuse: true,
            faults: None,
            stall_timeout: None,
            telemetry: None,
        }
    }
}

impl RunOptions {
    /// Options for metric-collection runs that also keep the message log.
    pub fn with_log() -> Self {
        RunOptions { collect_messages: true, ..Default::default() }
    }
}

/// Outcome of an engine run.
#[derive(Debug, Clone)]
pub struct RunResult<S> {
    /// Final per-VP states (index = VP id; for folded runs, VP states are
    /// still reported per VP, grouped under their owning processor).
    pub states: Vec<S>,
    /// The communication trace (granularity `v` for [`run`], granularity `p`
    /// for [`run_folded`]).
    pub trace: CommTrace,
    /// Raw message log (one entry per recorded superstep) when requested.
    pub message_log: Option<Vec<Vec<(u32, u32)>>>,
}

/// Minimum VPs per shard for a default (`workers: None`) worker count:
/// gang dispatch costs barriers per superstep, so tiny machines run serially
/// no matter how many CPUs are visible. An explicit [`RunOptions::workers`]
/// overrides this floor (differential tests shard tiny machines on purpose).
const MIN_VPS_PER_WORKER: usize = 64;

/// Hard ceiling on explicit worker requests: each shard is an OS thread,
/// and a request large enough to make thread spawning itself fail would
/// strand the already-spawned gang on its barrier.
pub(crate) const MAX_WORKERS: usize = 256;

/// The metric granularity of a run, shared between the serial and sharded
/// paths.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GranSpec {
    /// Fold levels tracked: `log v` for full runs, `log p` for folded ones.
    pub(crate) levels: u32,
    /// Shift from VP ids to metric-granularity processor ids.
    pub(crate) gran_shift: u32,
    /// Whether this is a full-granularity run (affects message-log format
    /// and whether granularity-internal messages count).
    pub(crate) full: bool,
}

impl GranSpec {
    /// The message-log entry of a message `src → dst` (VP ids): the VP pair
    /// at full granularity; folded, the processor pair, or `None` for a
    /// message internal to its processor. Every log — serial, sharded and
    /// planned — is projected through this one method.
    #[inline]
    pub(crate) fn log_pair(self, src: usize, dst: usize) -> Option<(u32, u32)> {
        if self.full {
            return Some((src as u32, dst as u32));
        }
        let (ps, pd) = (src >> self.gran_shift, dst >> self.gran_shift);
        (ps != pd).then_some((ps as u32, pd as u32))
    }
}

/// One plan-less superstep's send sequence as a run recorded it for
/// [`Program::capture_plans`]: the step's schedule index, the per-VP prefix
/// offsets and the flat `(dst, is_data)` slot table — the input of
/// [`crate::plan::StepPlan::compile_captured`].
pub(crate) type CapturedStep = (usize, Vec<u32>, Vec<(u32, bool)>);

/// Number of executor shards for a machine of `v` VPs at metric granularity
/// `gran`: a power of two between 1 and `gran`.
fn shard_count(v: usize, gran: usize, opts: &RunOptions) -> usize {
    if !opts.parallel {
        return 1;
    }
    let cap = match opts.workers {
        Some(w) => w.clamp(1, MAX_WORKERS),
        None => {
            let threads = rayon::current_num_threads();
            if threads < 2 {
                return 1;
            }
            threads.min(v / MIN_VPS_PER_WORKER)
        }
    };
    let cap = cap.min(gran);
    if cap < 2 {
        1
    } else {
        // Largest power of two ≤ cap (shards must divide the VP space).
        1usize << cap.ilog2()
    }
}

/// Executes `prog` at full granularity on `M(v)`.
///
/// `states` must hold exactly one state per VP (any other length is a
/// [`ModelError::BadVectorLength`]). The returned trace records,
/// for each superstep, the degree of every folding `M(2^j)`, so that
/// `H(n, 2^j, σ)` and `D(n, p, g, ℓ)` can be evaluated analytically afterward.
pub fn run<S: Send + Clone, M: Send>(
    prog: &Program<S, M>,
    states: Vec<S>,
    opts: &RunOptions,
) -> Result<RunResult<S>, ModelError> {
    let log_v = prog.log_v();
    run_core(prog, states, GranSpec { levels: log_v, gran_shift: 0, full: true }, opts)
}

/// Executes the *folding* of `prog` on `M(p)` with `p ≤ v`: processor `r`
/// carries out the work of the `v/p` consecutively numbered VPs starting at
/// `r·v/p` (Section 2 of the paper).
///
/// Supersteps with label `≥ log p` become local computation: they are still
/// executed (the VP closures run and their messages are delivered — all
/// destinations are then within the same processor) but produce no superstep
/// record, exactly as in the paper's folding semantics. The returned trace
/// has granularity `p`. When `opts.collect_messages` is set, the log carries
/// one entry per *recorded* superstep holding the processor-external
/// `(src proc, dst proc)` pairs at granularity `p`, aligned with
/// `trace.steps` for the protocol rewriter.
///
/// Under the sharded executor this is the degenerate case *shard = fold*:
/// the folding is executed by up to `p` persistent workers, each simulating
/// one processor's consecutive VPs (fewer when the worker budget is
/// smaller — shards then span whole processors and the metrics are merged
/// identically).
pub fn run_folded<S: Send + Clone, M: Send>(
    prog: &Program<S, M>,
    states: Vec<S>,
    p: usize,
    opts: &RunOptions,
) -> Result<RunResult<S>, ModelError> {
    let v = prog.v();
    if !p.is_power_of_two() || p < 2 || p > v {
        return Err(ModelError::BadFold { p, v });
    }
    let log_p = log2_exact(p);
    let spec = GranSpec { levels: log_p, gran_shift: prog.log_v() - log_p, full: false };
    run_core(prog, states, spec, opts)
}

/// Builds an executor for this one call — spawning the gang's threads when
/// the width asks for any — runs `prog` through it, and drops it.
fn run_core<S: Send + Clone, M: Send>(
    prog: &Program<S, M>,
    mut states: Vec<S>,
    spec: GranSpec,
    opts: &RunOptions,
) -> Result<RunResult<S>, ModelError> {
    let v = prog.v();
    prog.check_states_len(states.len())?;
    let width = shard_count(v, 1 << spec.levels, opts);
    let mut exec = Executor::new(width);
    let message_log = exec.attempt(prog, &mut states, spec, opts, width)?;
    Ok(RunResult { states, trace: exec.trace.snapshot(), message_log })
}

/// Fault-injection sites instrumented on the serial path (the sharded
/// executor's sites live in `crate::shard`, the arena/count edges in
/// `crate::mailbox`): the planned direct-write superstep and the dynamic
/// computation + send phase. Both are checked *inside* the phase's
/// `catch_unwind`, so panic-flavor faults exercise the same unwind
/// recovery as a real closure panic.
pub(crate) const FAULT_SERIAL_PLANNED: &str = "serial:planned";
/// See [`FAULT_SERIAL_PLANNED`].
pub(crate) const FAULT_SERIAL_EXEC: &str = "serial:exec";

/// Renders a caught closure panic as the structured
/// [`ModelError::VpPanic`], preserving string payloads verbatim. Shared by
/// the serial path and the sharded workers so the two report identically.
pub(crate) fn vp_panic_error(
    step: &'static str,
    vp: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> ModelError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    ModelError::VpPanic { step, vp, payload: msg }
}

/// The plan a run executes `step` from, if any: plans enabled
/// ([`RunOptions::use_plans`]) and the step's route compiled without a
/// fault. The serial loop's tier census and dispatch and every gang
/// worker's dispatch ask this one question, so what a run allocated and
/// what it executes cannot disagree.
pub(crate) fn runnable_plan<S, M>(
    step: &crate::program::Superstep<S, M>,
    use_plans: bool,
) -> Option<&StepPlan> {
    step.plan().filter(|p| use_plans && p.fault().is_none())
}

/// The single-shard execution loop: the whole machine is one shard, and
/// steady-state supersteps allocate nothing (the engine's headline property,
/// proven by `tests/allocation.rs`) — what [`Executor::attempt`] runs at
/// width 1.
///
/// `capture` is [`Program::capture_plans`]' recorder (`None` on every run
/// path): each superstep that runs on the dynamic body appends its staged
/// send sequence there, before the scatter drains it. Under the validated,
/// planned options capture runs with, those are exactly the plan-less
/// steps.
pub(crate) fn run_serial<S: Send, M: Send>(
    prog: &Program<S, M>,
    states: &mut [S],
    spec: GranSpec,
    opts: &RunOptions,
    trace: &mut TraceBuilder,
    message_log: &mut Option<Vec<Vec<(u32, u32)>>>,
    mut capture: Option<&mut Vec<CapturedStep>>,
) -> Result<(), ModelError> {
    let v = prog.v();
    let log_v = prog.log_v();
    let levels = spec.levels;
    let mut arenas = [Arena::<M>::new(v), Arena::<M>::new(v)];
    // The tier census: one walk over the schedule, before the first
    // superstep, decides what this attempt can execute and so what it
    // allocates. Superstep `t` writes arena `1 − t % 2`, and what a planned
    // step will write is known before the run, so each slab is allocated
    // once at its largest planned superstep rather than re-grown inside the
    // job (dynamic steps reserve nothing and grow on demand, as ever). A
    // step the loop below will not run planned makes the attempt `dynamic`;
    // a planned step that cannot be sized from its layout takes the
    // `counting` pass.
    let mut largest = [0u64; 2];
    let (mut dynamic, mut counting) = (false, false);
    for (t, step) in prog.steps().iter().enumerate() {
        match runnable_plan(step, opts.use_plans) {
            Some(plan) => {
                largest[1 - t % 2] = largest[1 - t % 2].max(plan.total_data());
                counting |= !opts.fuse || plan.layout().is_none();
            }
            None => dynamic = true,
        }
    }
    for (arena, total) in arenas.iter_mut().zip(largest) {
        // A step beyond the arena's 2^32 − 1 message design limit is
        // left to fail its own prepare's guard, not allocated for here.
        if total < u64::from(u32::MAX) {
            arena.reserve(total as usize);
        }
    }
    // Dynamic-tier scratch — the streaming counters and the staging end
    // markers — exists only when some step can reach the dynamic body.
    let mut counters = dynamic.then(|| {
        if spec.full {
            DegreeCounters::full(log_v)
        } else {
            DegreeCounters::folded(log_v, levels)
        }
    });
    let mut stage: ChunkStage<M> = ChunkStage::new(if dynamic { v } else { 0 });
    let mut read_idx = 0usize;
    // Per-destination counts of the dynamic body and of the planned counting
    // pass. Invariant: all-zero between supersteps (`prepare_write` re-zeroes
    // the counts as it consumes them, so no per-superstep `fill(0)` sweep).
    let mut dst_counts = vec![0u32; if dynamic || counting { v } else { 0 }];
    // Unconditional: every planned step's `DirectOut` bounds stray sends by
    // the cursor table — an idle (`out_degree = 0`) step included — so it
    // must never see an empty one.
    let mut cursors = vec![0u32; v];
    // Seen-bitmap scratch for unit-layout planned steps (one bit per VP,
    // re-zeroed per bitmap step), preallocated so planned steady state
    // stays allocation-free.
    let mut dst_seen = vec![0u64; v.div_ceil(64)];
    // Recycled per-superstep log entry scratch: log-collecting runs pay one
    // exact-size allocation per recorded superstep (the entry pushed into
    // the log), never repeated growth.
    let mut log_scratch: Vec<(u32, u32)> = Vec::new();
    let faults = opts.faults.as_deref();
    let tele = opts.telemetry.as_deref();

    for (t, step) in prog.steps().iter().enumerate() {
        let record_step = step.label < levels;
        let want_log = message_log.is_some() && record_step;

        // --- planned supersteps: direct-write scatter + analytic metrics --
        if let Some(plan) = runnable_plan(step, opts.use_plans) {
            let t0 = tele.map(|tl| {
                tl.enter(0, Site::SerialPlanned, t);
                Instant::now()
            });
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = faults {
                    f.check(FAULT_SERIAL_PLANNED, 0, t)?;
                }
                run_planned_step(
                    step,
                    plan,
                    0,
                    states,
                    &mut arenas,
                    read_idx,
                    &mut dst_counts,
                    &mut cursors,
                    Some(&mut dst_seen),
                    &mut stage,
                    opts.fuse,
                )
            }));
            match outcome {
                Ok(result) => result?,
                Err(payload) => return Err(vp_panic_error(step.name, stage.panic_vp(), payload)),
            }
            if let (Some(tl), Some(t0)) = (tele, t0) {
                tl.record(0, Site::SerialPlanned, t0.elapsed());
            }
            push_planned_record(trace, message_log.as_mut(), step.label, plan, spec);
            read_idx = 1 - read_idx;
            continue;
        }
        // A route that violates the model is reported like the dynamic
        // engine would; with validation off, fall through and let the
        // dynamic path execute (and deliver) it.
        if opts.use_plans && opts.validate {
            if let Some(fault) = step.plan().and_then(|p| p.fault()) {
                return Err(fault.clone());
            }
        }
        let Some(counters) = counters.as_mut() else {
            unreachable!("the census allocates the dynamic tier for every step it does not plan")
        };

        // --- computation + send phase -----------------------------------
        {
            let t0 = tele.map(|tl| {
                tl.enter(0, Site::SerialExec, t);
                Instant::now()
            });
            let read = &mut arenas[read_idx];
            let (slab, offsets) = read.take_read();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = faults {
                    f.check(FAULT_SERIAL_EXEC, 0, t)?;
                }
                exec_chunk(prog, step, 0, states, slab, offsets, &mut stage);
                Ok(())
            }));
            match outcome {
                Ok(result) => result?,
                Err(payload) => return Err(vp_panic_error(step.name, stage.panic_vp(), payload)),
            }
            if let (Some(tl), Some(t0)) = (tele, t0) {
                tl.record(0, Site::SerialExec, t0.elapsed());
            }
        }
        if let Some(e) = stage.outbox.take_error(step.name) {
            return Err(e);
        }

        // --- streaming validation + metrics + routing counts (one pass) ---
        crate::mailbox::fault_edge(faults, crate::mailbox::FAULT_BUMP_COUNT, 0, t)?;
        counters.begin_superstep();
        if want_log {
            log_scratch.clear();
        }
        let mut msg_idx = 0usize;
        for (src, &end) in stage.vp_ends.iter().enumerate() {
            for (dst, env) in &stage.outbox.msgs[msg_idx..end as usize] {
                let dst = *dst as usize;
                if opts.validate {
                    if let Some(fault) = message_fault(src, dst, v, log_v, step.label) {
                        return Err(fault);
                    }
                }
                if record_step {
                    counters.record(src, dst);
                }
                if want_log {
                    log_scratch.extend(spec.log_pair(src, dst));
                }
                if matches!(env, Envelope::Data(_)) {
                    // Checked: a wrapped count would mis-size the arena
                    // and a capped one would corrupt the counting-sort
                    // offsets; hitting the limit is a model error.
                    crate::mailbox::bump_count(&mut dst_counts[dst])?;
                }
            }
            msg_idx = end as usize;
        }
        if record_step {
            trace.push_superstep(step.label, counters);
            if want_log {
                if let Some(log) = message_log.as_mut() {
                    log.push(log_scratch.clone());
                }
            }
        }

        if let Some(rec) = capture.as_deref_mut() {
            let mut offsets = Vec::with_capacity(v + 1);
            offsets.push(0u32);
            offsets.extend_from_slice(&stage.vp_ends);
            let slots = stage
                .outbox
                .msgs
                .iter()
                .map(|(dst, env)| (*dst, matches!(env, Envelope::Data(_))))
                .collect();
            rec.push((t, offsets, slots));
        }

        // --- routing (messages become visible next superstep) --------------
        {
            crate::mailbox::fault_edge(faults, crate::mailbox::FAULT_PREPARE_WRITE, 0, t)?;
            let write = &mut arenas[1 - read_idx];
            let total = write.prepare_write(&mut dst_counts, &mut cursors);
            let (slab, _offsets) = write.split_for_scatter(total);
            route_serial(&mut stage, &mut cursors, slab);
            write.commit_write(total);
        }
        read_idx = 1 - read_idx;
    }
    Ok(())
}

/// Executes one planned superstep whose payloads stay in one arena: the
/// whole machine's on the serial loop (`base` 0), or a gang worker's shard
/// `[base, base + states.len())` on a fused step — under the paper's
/// folding a superstep whose traffic stays inside a processor is local
/// computation there, so both are this one routine.
///
/// The write arena is sized from the plan's `O(1)`
/// [`crate::plan::PlanLayout`] summary when `fuse` is set and compile
/// detected one, else by a counting pass over the range's declared routes;
/// the step's chunk kernel ([`crate::program::ChunkKernel`]) then runs every
/// VP closure, which writes its payloads **directly into the destination
/// arena slot** through the cursor-guarded [`DirectOut`] — no staging
/// copy, no validation scan, no streaming counters, no counting-sort
/// scatter. The caller pushes the plan's precomputed record afterwards.
///
/// A body that breaks its route is rejected, never silently executed: one
/// payload too many, or one leaving the range, is refused by its writer,
/// and the written total is compared against the sized total *before* the
/// arena is committed, so one too few never publishes an under-filled slab
/// (its payloads are leaked, not dropped, which is safe and bounded by one
/// superstep).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_planned_step<S, M: Send>(
    step: &crate::program::Superstep<S, M>,
    plan: &StepPlan,
    base: usize,
    states: &mut [S],
    arenas: &mut [Arena<M>; 2],
    read_idx: usize,
    dst_counts: &mut [u32],
    cursors: &mut [u32],
    dst_seen: Option<&mut [u64]>,
    stage: &mut ChunkStage<M>,
    fuse: bool,
) -> Result<(), ModelError> {
    let [a0, a1] = arenas;
    let (read, write) = if read_idx == 0 { (a0, a1) } else { (a1, a0) };
    let v = plan.v;
    // Not `dst_counts.len()`: that table is empty on a run whose every
    // planned step is sized from its layout.
    let len = states.len();

    // Size the write arena. Either way the direct writer re-checks every
    // slot bound at write time, so a wrong layout could only surface as
    // PlanMismatch, never as an out-of-bounds write. Unit layouts (`k == 1`
    // — butterflies, shuffles, transposes) deliver through the caller's
    // L1-resident seen-bitmap when it lends one, else through the cursor
    // table with uniform limits.
    let layout = plan.layout().filter(|_| fuse);
    let mut bits = dst_seen.filter(|_| matches!(layout, Some(PlanLayout::Uniform(1))));
    let (total, uniform_k) = match layout {
        Some(&PlanLayout::Uniform(k)) => {
            (write.prepare_write_uniform(k, bits.is_none().then_some(&mut *cursors)), k)
        }
        Some(layout @ PlanLayout::Table(_)) => {
            (write.prepare_write_counts(|d| layout.count(base + d), cursors), 0)
        }
        None => {
            plan.count_data(base..base + len, dst_counts)?;
            (write.prepare_write(dst_counts, cursors), 0)
        }
    };
    debug_assert!(len < v || total as u64 == plan.total_data(), "count pass disagrees");
    if let Some(b) = bits.as_deref_mut() {
        b.fill(0);
    }

    // Arm the direct writer over the write arena's freshly sized slab.
    {
        let (wslab, woffsets) = write.split_for_scatter(total);
        stage.direct = Some(DirectSink::Local(DirectOut::new(
            wslab,
            cursors,
            woffsets,
            uniform_k,
            bits.as_deref_mut(),
            base,
            v,
        )));
    }

    // Execute the chunk through the step's kernel, carving inboxes out of
    // the read arena as usual.
    let (rslab, roffsets) = read.take_read();
    let ctx = Ctx { vp: base, v, log_v: plan.log_v, n: plan.n };
    step.kernel().run_chunk(&step.exec, ctx, states, rslab, roffsets, stage);

    let (written, fault) = match stage.direct.take() {
        Some(DirectSink::Local(d)) => d.finish(),
        _ => unreachable!("a one-arena planned step arms a local sink"),
    };
    if let Some((vp, reason)) = fault {
        return Err(ModelError::PlanMismatch { step: step.name, vp, reason });
    }
    if written != total as u64 {
        // Attribute the shortfall to the first destination whose inbox
        // range was left short (the sender is unknown, but the starved
        // receiver is not).
        let (_, woffsets) = write.split_for_scatter(total);
        let d = match bits {
            Some(b) => (0..len).find(|&d| b[d >> 6] & (1u64 << (d & 63)) == 0),
            None => (0..len).find(|&d| cursors[d] < woffsets[d + 1]),
        };
        return Err(ModelError::PlanMismatch {
            step: step.name,
            vp: base + d.unwrap_or(0),
            reason: "destination received fewer payload messages than the route declares",
        });
    }
    write.commit_write(total);
    Ok(())
}

/// Records a planned superstep whose label the trace records (`label <
/// spec.levels`): the plan's precomputed `O(log v)` metrics and, when the
/// run keeps a message log, the entry materialized from the route (same
/// order as the dynamic path: ascending source VP, then send order; dummies
/// included at full granularity, processor-external pairs only when
/// folded). The record's message total is exactly the entry's length, so
/// each entry is one exact-size allocation. The serial loop and the gang's
/// coordinator both record through here, so the two can never emit
/// differently shaped records.
pub(crate) fn push_planned_record(
    trace: &mut TraceBuilder,
    log: Option<&mut Vec<Vec<(u32, u32)>>>,
    label: u32,
    plan: &StepPlan,
    spec: GranSpec,
) {
    if label >= spec.levels {
        return;
    }
    trace.push_precomputed(label, plan.metrics(), spec.full);
    if let Some(log) = log {
        let len = plan.metrics().total_at(spec.levels, spec.full) as usize;
        let mut entry = Vec::with_capacity(len);
        plan.for_each_message(0..plan.v, |s, d, _| entry.extend(spec.log_pair(s, d)));
        debug_assert_eq!(entry.len(), len, "log entry disagrees with the record's total");
        log.push(entry);
    }
}

/// Runs the superstep closure for every VP of one shard, carving per-VP
/// inboxes out of the shard's slab and staging sends contiguously. Shared
/// by the serial path (one shard covering the machine) and the sharded
/// executor's workers.
pub(crate) fn exec_chunk<S, M>(
    prog: &Program<S, M>,
    step: &crate::program::Superstep<S, M>,
    vp_lo: usize,
    states: &mut [S],
    slab: &mut [std::mem::MaybeUninit<M>],
    offsets: &[u32],
    stage: &mut ChunkStage<M>,
) {
    stage.reset();
    let base = Ctx { vp: vp_lo, v: prog.v(), log_v: prog.log_v(), n: prog.n() };
    let ChunkStage { outbox, vp_ends, .. } = stage;
    crate::program::for_each_vp(base, states, slab, offsets, |state, ctx, inbox| {
        outbox.begin_vp();
        outbox.cur_vp = ctx.vp;
        (step.exec)(state, &ctx, inbox, outbox);
        vp_ends.push(outbox.msgs.len() as u32);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Inbox;

    /// Folds every delivered message into the state.
    fn absorb(st: &mut u64, inbox: &mut Inbox<'_, u64>) {
        for m in inbox.drain(..) {
            *st = st.wrapping_add(m);
        }
    }

    /// Cluster-halving broadcast: in superstep i the first VP of each
    /// i-cluster forwards the value to the first VP of the sibling
    /// (i+1)-cluster. log v supersteps with labels 0, 1, …, log v − 1.
    fn broadcast_program(v: usize) -> Program<Option<u64>, u64> {
        let mut p: Program<Option<u64>, u64> = Program::new(v, v);
        let log_v = p.log_v();
        for i in 0..log_v {
            p.step(i, "bcast", move |state, ctx, inbox, out| {
                if let Some(m) = inbox.pop() {
                    *state = Some(m);
                }
                let cluster = ctx.v >> i;
                if ctx.vp % cluster == 0 {
                    if let Some(val) = *state {
                        out.send(ctx.vp + cluster / 2, val);
                    }
                }
            });
        }
        // Messages sent in the last round are only visible after its barrier:
        // consume them in a final (cheap, innermost-label) superstep.
        p.step(log_v - 1, "consume", |state, _, inbox, _| {
            if let Some(m) = inbox.pop() {
                *state = Some(m);
            }
        });
        p
    }

    /// Options forcing the sharded executor at `w` workers.
    fn sharded(w: usize) -> RunOptions {
        RunOptions { workers: Some(w), ..Default::default() }
    }

    #[test]
    fn broadcast_reaches_cluster_leaders() {
        let v = 16;
        let mut states = vec![None; v];
        states[0] = Some(99);
        let res = run(&broadcast_program(v), states, &RunOptions::default()).unwrap();
        // After log v rounds every cluster leader (here: every even-indexed
        // chain) has the value; with v = 16 all VPs that are the first of
        // some cluster at some level got it: 0, 8, 4, 12, 2, 6, 10, 14, odds.
        let got: Vec<usize> = res.states.iter().enumerate().filter(|(_, s)| s.is_some()).map(|(i, _)| i).collect();
        assert_eq!(got.len(), 16, "all VPs reached: {got:?}");
        // Metrics: one i-superstep per level plus the silent consume step.
        assert_eq!(res.trace.superstep_count(), 5);
        assert_eq!(res.trace.s_counts(), vec![1, 1, 1, 2]);
        let m = res.trace.fold(16);
        assert_eq!(m.f, vec![1, 1, 1, 1]);
        // At fold 2 only the label-0 superstep communicates.
        let m2 = res.trace.fold(2);
        assert_eq!(m2.f, vec![1]);
        assert_eq!(m2.s, vec![1]);
    }

    #[test]
    fn folded_run_matches_full_run() {
        let v = 16;
        let mut states = vec![None; v];
        states[0] = Some(7);
        let prog = broadcast_program(v);
        let full = run(&prog, states.clone(), &RunOptions::default()).unwrap();
        for p in [2usize, 4, 8, 16] {
            let folded = run_folded(&prog, states.clone(), p, &RunOptions::default()).unwrap();
            // Same outputs...
            assert_eq!(folded.states, full.states, "states diverge at p = {p}");
            // ...and metrics matching the analytic fold at every sub-level.
            let mut q = 2;
            while q <= p {
                assert_eq!(
                    folded.trace.fold(q),
                    full.trace.fold(q),
                    "fold metrics diverge at p = {p}, q = {q}"
                );
                q *= 2;
            }
        }
    }

    #[test]
    fn cluster_violations_are_caught() {
        let mut p: Program<(), u32> = Program::new(8, 8);
        // A label-2 superstep trying to cross the bisection.
        p.step(2, "bad", |_, ctx, _, out| {
            if ctx.vp == 0 {
                out.send(7, 1);
            }
        });
        let err = match run(&p, vec![(); 8], &RunOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("expected a cluster violation"),
        };
        assert!(matches!(err, ModelError::ClusterViolation { label: 2, src: 0, dst: 7 }));
        // Without validation the engine lets it pass (for experiments).
        let opts = RunOptions { validate: false, ..Default::default() };
        assert!(run(&p, vec![(); 8], &opts).is_ok());
    }

    #[test]
    fn sharded_run_reports_cluster_violations_too() {
        let mut p: Program<(), u32> = Program::new(8, 8);
        p.step(1, "bad", |_, ctx, _, out| {
            if ctx.vp == 2 {
                out.send(6, 1); // crosses the bisection in a 1-superstep
            }
        });
        for w in [2usize, 4] {
            let err = match run(&p, vec![(); 8], &sharded(w)) {
                Err(e) => e,
                Ok(_) => panic!("expected a cluster violation at {w} workers"),
            };
            assert!(
                matches!(err, ModelError::ClusterViolation { label: 1, src: 2, dst: 6 }),
                "wrong error at {w} workers: {err:?}"
            );
        }
    }

    #[test]
    fn dummies_count_in_metrics_but_are_not_delivered() {
        let mut p: Program<u64, u64> = Program::new(4, 4);
        p.step(0, "dummy-send", |_, ctx, _, out| {
            if ctx.vp == 0 {
                out.send_dummy(2);
            }
        });
        p.step(0, "count-inbox", |state, _, inbox, _| {
            *state = inbox.len() as u64;
        });
        let res = run(&p, vec![0; 4], &RunOptions::default()).unwrap();
        assert_eq!(res.states, vec![0, 0, 0, 0], "dummy delivered?");
        assert_eq!(res.trace.steps[0].total_msgs, 1);
        assert_eq!(res.trace.steps[0].h(1), 1);
        // Same through the sharded executor (the dummy crosses a shard
        // boundary at 4 workers, so it rides a lane header).
        for w in [2usize, 4] {
            let s = run(&p, vec![0; 4], &sharded(w)).unwrap();
            assert_eq!(s.states, res.states, "dummy delivered at {w} workers?");
            assert_eq!(s.trace, res.trace, "dummy metrics diverge at {w} workers");
        }
    }

    #[test]
    fn message_log_records_raw_edges() {
        let mut p: Program<(), u8> = Program::new(4, 4);
        p.step(0, "x", |_, ctx, _, out| {
            if ctx.vp < 2 {
                out.send(ctx.vp + 2, 1);
            }
        });
        let res = run(&p, vec![(); 4], &RunOptions::with_log()).unwrap();
        let log = res.message_log.unwrap();
        assert_eq!(log, vec![vec![(0, 2), (1, 3)]]);
        // The sharded log concatenates per-shard fragments in shard order =
        // ascending source order.
        let opts = RunOptions { workers: Some(4), ..RunOptions::with_log() };
        let sharded = run(&p, vec![(); 4], &opts).unwrap();
        assert_eq!(sharded.message_log.unwrap(), vec![vec![(0, 2), (1, 3)]]);
    }

    #[test]
    fn folded_message_log_is_processor_granularity() {
        let mut p: Program<(), u8> = Program::new(8, 8);
        // Label 0: VP0 -> VP7 crosses every boundary; VP4 -> VP5 is internal
        // at p = 2 and p = 4... VP4 and VP5 share the top two bits of three.
        p.step(0, "far", |_, ctx, _, out| {
            if ctx.vp == 0 {
                out.send(7, 1);
            }
            if ctx.vp == 4 {
                out.send(5, 1);
            }
        });
        // Label 2: local at p = 4, produces no record and no log entry.
        p.step(2, "near", |_, ctx, _, out| {
            if ctx.vp == 0 {
                out.send(1, 1);
            }
        });
        let res = run_folded(&p, vec![(); 8], 4, &RunOptions::with_log()).unwrap();
        let log = res.message_log.unwrap();
        assert_eq!(res.trace.superstep_count(), 1);
        assert_eq!(log.len(), res.trace.superstep_count(), "log aligns with trace");
        // VP0 -> VP7 becomes proc 0 -> proc 3; VP4 -> VP5 is internal to
        // proc 2 and is not logged.
        assert_eq!(log[0], vec![(0, 3)]);
        // Shard = fold: the sharded folded run produces the same log.
        let opts = RunOptions { workers: Some(4), ..RunOptions::with_log() };
        let sharded = run_folded(&p, vec![(); 8], 4, &opts).unwrap();
        assert_eq!(sharded.trace, res.trace);
        assert_eq!(sharded.message_log.unwrap(), log);
    }

    #[test]
    fn inbox_is_cleared_between_supersteps() {
        let mut p: Program<Vec<u64>, u64> = Program::new(4, 4);
        p.step(0, "send", |_, ctx, _, out| out.send(ctx.vp ^ 1, ctx.vp as u64));
        p.step(0, "recv", |state, _, inbox, _| state.extend(inbox.drain(..)));
        p.step(0, "recv-again", |state, _, inbox, _| state.extend(inbox.drain(..)));
        let res = run(&p, vec![Vec::new(); 4], &RunOptions::default()).unwrap();
        // Each VP received exactly one message, in the second superstep only.
        assert!(res.states.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn sharded_run_matches_serial_bit_for_bit() {
        let v = 16;
        let mut states = vec![None; v];
        states[0] = Some(41);
        let prog = broadcast_program(v);
        let serial = run(&prog, states.clone(), &RunOptions::with_log()).unwrap();
        for w in [2usize, 4, 8, 16] {
            let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
            let sh = run(&prog, states.clone(), &opts).unwrap();
            assert_eq!(sh.states, serial.states, "states diverge at {w} workers");
            assert_eq!(sh.trace, serial.trace, "trace diverges at {w} workers");
            assert_eq!(sh.message_log, serial.message_log, "log diverges at {w} workers");
        }
        // Folded runs: every (p, workers ≤ p) combination agrees with the
        // serial folding.
        for p in [2usize, 4, 8] {
            let serial_folded =
                run_folded(&prog, states.clone(), p, &RunOptions::default()).unwrap();
            for w in [2usize, 4, 8] {
                let sh = run_folded(&prog, states.clone(), p, &sharded(w)).unwrap();
                assert_eq!(sh.states, serial_folded.states, "folded states, p={p} w={w}");
                assert_eq!(sh.trace, serial_folded.trace, "folded trace, p={p} w={w}");
            }
        }
    }

    #[test]
    fn vp_panics_become_structured_errors_at_every_width() {
        // A VP-closure panic is downgraded to the identical structured
        // `VpPanic` on the serial path and at every shard width.
        let mut p: Program<(), u8> = Program::new(8, 8);
        p.step(0, "boom", |_, ctx, _, _| {
            if ctx.vp == 5 {
                panic!("vp exploded");
            }
        });
        for w in [1usize, 2, 4, 8] {
            let err = run(&p, vec![(); 8], &sharded(w)).unwrap_err();
            assert_eq!(
                err,
                ModelError::VpPanic { step: "boom", vp: 5, payload: "vp exploded".into() },
                "panic downgrade diverges at {w} workers"
            );
        }
    }

    /// Butterfly exchange declared as an oblivious route (with a wiseness
    /// dummy from the low half), next to its plain dynamic twin.
    fn butterfly_pair(v: usize, rounds: usize) -> (Program<u64, u64>, Program<u64, u64>) {
        use crate::plan::Route;
        let mut planned: Program<u64, u64> = Program::new(v, v);
        let mut dynamic: Program<u64, u64> = Program::new(v, v);
        let log_v = planned.log_v();
        for r in 0..rounds {
            let l = (r as u32) % log_v;
            let d = v >> (l + 1);
            planned.step_oblivious(
                l,
                "bfly",
                2,
                move |ctx: &Ctx, k| {
                    if k == 0 {
                        Route::Data(ctx.vp ^ d)
                    } else if ctx.vp < d {
                        Route::Dummy(ctx.vp + d)
                    } else {
                        Route::Skip
                    }
                },
                |st, _, inbox, out| {
                    absorb(st, inbox);
                    out.send(*st);
                },
            );
            dynamic.step(l, "bfly", move |st, ctx, inbox, out| {
                absorb(st, inbox);
                out.send(ctx.vp ^ d, *st);
                if ctx.vp < d {
                    out.send_dummy(ctx.vp + d);
                }
            });
        }
        planned.step_oblivious(log_v - 1, "consume", 0, |_: &Ctx, _| Route::Skip, |st, _, inbox, _| {
            absorb(st, inbox)
        });
        dynamic.step(log_v - 1, "consume", |st, _, inbox, _| absorb(st, inbox));
        (planned, dynamic)
    }

    #[test]
    fn planned_execution_is_bit_for_bit_dynamic_execution() {
        let v = 16;
        let (planned, dynamic) = butterfly_pair(v, 9);
        assert_eq!(planned.planned_steps(), 10);
        let states: Vec<u64> = (0..v as u64).map(|x| x * 7 + 1).collect();
        let base = RunOptions { workers: Some(1), ..RunOptions::with_log() };
        let want = run(&dynamic, states.clone(), &base).unwrap();
        // Serial planned, planned-with-plans-off, and sharded planned all
        // agree with the dynamic program exactly.
        let on = run(&planned, states.clone(), &base).unwrap();
        assert_eq!(on.states, want.states);
        assert_eq!(on.trace, want.trace);
        assert_eq!(on.message_log, want.message_log);
        let off_opts = RunOptions { use_plans: false, ..base.clone() };
        let off = run(&planned, states.clone(), &off_opts).unwrap();
        assert_eq!(off.states, want.states);
        assert_eq!(off.trace, want.trace);
        assert_eq!(off.message_log, want.message_log);
        for w in [2usize, 4] {
            let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
            let sh = run(&planned, states.clone(), &opts).unwrap();
            assert_eq!(sh.states, want.states, "sharded planned states at {w} workers");
            assert_eq!(sh.trace, want.trace, "sharded planned trace at {w} workers");
            assert_eq!(sh.message_log, want.message_log, "sharded planned log at {w} workers");
        }
        // Folded runs agree too (planned metrics at granularity p).
        for p in [2usize, 4, 8] {
            let fw = run_folded(&dynamic, states.clone(), p, &base).unwrap();
            for w in [1usize, 2] {
                let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
                let fp = run_folded(&planned, states.clone(), p, &opts).unwrap();
                assert_eq!(fp.states, fw.states, "folded planned states p={p} w={w}");
                assert_eq!(fp.trace, fw.trace, "folded planned trace p={p} w={w}");
                assert_eq!(fp.message_log, fw.message_log, "folded planned log p={p} w={w}");
            }
        }
        // Validation-off planned runs still agree (safety checks only).
        let noval = RunOptions { validate: false, workers: Some(1), ..Default::default() };
        let nv = run(&planned, states.clone(), &noval).unwrap();
        assert_eq!(nv.states, want.states);
        assert_eq!(nv.trace, want.trace);
    }

    #[test]
    fn misdeclared_route_is_rejected_not_silently_executed() {
        use crate::plan::Xor;
        let v = 8usize;
        // The route declares one payload per VP; the body sends two on VP
        // `extra` and none on VP `none`. Neither runs, on any path, with or
        // without validation.
        let liar = |extra: usize, none: usize| {
            let mut p: Program<u64, u64> = Program::new(v, v);
            p.step_oblivious(
                0,
                "liar",
                1,
                Xor(1),
                move |_, ctx, _, out| {
                    if ctx.vp != none {
                        out.send(1);
                    }
                    if ctx.vp == extra {
                        out.send(2);
                    }
                },
            );
            p
        };
        let (over, under) = (liar(3, v), liar(v, 5));
        let states: Vec<u64> = vec![0; v];
        for w in [1usize, 2, 4] {
            for validate in [true, false] {
                for use_plans in [true, false] {
                    let opts =
                        RunOptions { workers: Some(w), validate, use_plans, ..Default::default() };
                    let what = format!("w = {w}, validate = {validate}, plans = {use_plans}");
                    let err = run(&over, states.clone(), &opts).expect_err(&what);
                    assert_eq!(
                        err,
                        ModelError::PlanMismatch {
                            step: "liar",
                            vp: 3,
                            reason: "more payload messages than the route declares"
                        },
                        "{what}"
                    );
                    let err = run(&under, states.clone(), &opts).expect_err(&what);
                    let liar = matches!(err, ModelError::PlanMismatch { step: "liar", .. });
                    assert!(liar, "{what}: {err:?}");
                }
            }
        }
        let opts = RunOptions::default();
        let staged = crate::reference::run_reference(&under, states.clone(), &opts).unwrap_err();
        assert_eq!(
            staged,
            ModelError::PlanMismatch {
                step: "liar",
                vp: 5,
                reason: "fewer payload messages than the route declares"
            },
            "the staged body names the VP that fell short"
        );
        assert!(crate::reference::run_reference(&over, states, &opts).is_err());
    }

    #[test]
    fn cluster_violating_route_faults_at_compile_and_reports_under_validate() {
        use crate::plan::Xor;
        let v = 8usize;
        let mut p: Program<u64, u64> = Program::new(v, v);
        // A label-2 route crossing the bisection: illegal by construction.
        p.step_oblivious(2, "rogue", 1, Xor(4), |st, _, inbox, out| {
            absorb(st, inbox);
            out.send(*st + 1);
        });
        p.step(2, "consume", |st, _, inbox, _| {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
        });
        assert_eq!(p.planned_steps(), 0, "faulted plan is not usable");
        let states: Vec<u64> = (0..v as u64).collect();
        for w in [1usize, 2] {
            let err = run(&p, states.clone(), &RunOptions { workers: Some(w), ..Default::default() })
                .expect_err("validated run must reject the route");
            assert!(matches!(err, ModelError::ClusterViolation { label: 2, .. }), "got {err:?}");
        }
        // Validation off: the step falls back to the dynamic path and runs
        // exactly like its undeclared twin.
        let mut q: Program<u64, u64> = Program::new(v, v);
        q.step(2, "rogue", |st, ctx, inbox, out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
            out.send(ctx.vp ^ 4, *st + 1);
        });
        q.step(2, "consume", |st, _, inbox, _| {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
        });
        let noval = RunOptions { validate: false, ..Default::default() };
        let a = run(&p, states.clone(), &noval).unwrap();
        let b = run(&q, states.clone(), &noval).unwrap();
        assert_eq!(a.states, b.states);
        assert_eq!(a.trace, b.trace);
    }

    /// Every branch of `run_serial`'s tier census against the reference
    /// engine, each (where the branch allows it) on a program whose first
    /// dynamic execution — or first counting pass — comes after fused
    /// planned steps, so scratch the census left out would be missed then.
    #[test]
    fn every_census_branch_matches_the_reference_engine() {
        use crate::plan::{Route, Xor, LAYOUT_TABLE_MAX_V};
        let check = |what: &str, prog: &Program<u64, u64>, opts: &RunOptions| {
            let states: Vec<u64> = (0..prog.v() as u64).map(|x| x * 7 + 1).collect();
            let got = run(prog, states.clone(), opts).unwrap_or_else(|e| panic!("{what}: {e:?}"));
            let want = crate::reference::run_reference(prog, states, opts).unwrap();
            assert_eq!(got.states, want.states, "{what}: states");
            assert_eq!(got.trace, want.trace, "{what}: trace");
            assert_eq!(got.message_log, want.message_log, "{what}: message log");
        };
        let base = RunOptions { workers: Some(1), ..RunOptions::with_log() };
        let noval = RunOptions { validate: false, ..base.clone() };
        let v = 16usize;

        // Nothing dynamic, nothing counted; then the option-driven branches.
        let (declared, _) = butterfly_pair(v, 5);
        check("fully declared", &declared, &base);
        check("use_plans: false", &declared, &RunOptions { use_plans: false, ..base.clone() });
        check("fuse: false", &declared, &RunOptions { fuse: false, ..base.clone() });

        // A plan-less step after six planned ones.
        let (mut tail, _) = butterfly_pair(v, 5);
        tail.step(3, "tail", |st, ctx, inbox, out| {
            absorb(st, inbox);
            out.send(ctx.vp ^ 1, *st);
        });
        tail.step(3, "consume", |st, _, inbox, _| absorb(st, inbox));
        check("plan-less step last", &tail, &base);

        // A compile-faulted plan (a label-2 route crossing the bisection)
        // falling through to the dynamic body under `validate: false`.
        let (mut rogue, _) = butterfly_pair(v, 5);
        rogue.step_oblivious(2, "rogue", 1, Xor(8), |st, _, inbox, out| {
            absorb(st, inbox);
            out.send(*st);
        });
        rogue.step_oblivious(2, "consume", 0, |_: &Ctx, _| Route::End, |st, _, inbox, _| {
            absorb(st, inbox)
        });
        assert!(rogue.steps()[6].plan().is_some_and(|p| p.fault().is_some()));
        check("faulted plan, validate off", &rogue, &noval);

        // A fan-in whose layout has no period short enough to keep
        // (`layout() == None`): the one planned step that counts its route.
        let wide = 2 * LAYOUT_TABLE_MAX_V;
        let (mut fan, _) = butterfly_pair(wide, 2);
        fan.step_oblivious(0, "fan-in", 1, |_: &Ctx, _| Route::Data(0), |st, _, inbox, out| {
            absorb(st, inbox);
            out.send(*st);
        });
        fan.step_oblivious(0, "consume", 0, |_: &Ctx, _| Route::End, |st, _, inbox, _| absorb(st, inbox));
        let fan_in = fan.steps()[3].plan().expect("declared");
        assert!(fan_in.fault().is_none() && fan_in.layout().is_none());
        check("layout-less fan-in", &fan, &base);
        check("layout-less fan-in, validate off", &fan, &noval);
    }

    #[test]
    fn arena_engine_matches_reference_engine() {
        let v = 16;
        let mut states = vec![None; v];
        states[0] = Some(41);
        let prog = broadcast_program(v);
        let arena = run(&prog, states.clone(), &RunOptions::with_log()).unwrap();
        let legacy =
            crate::reference::run_reference(&prog, states.clone(), &RunOptions::with_log())
                .unwrap();
        assert_eq!(arena.states, legacy.states);
        assert_eq!(arena.trace, legacy.trace);
        assert_eq!(arena.message_log, legacy.message_log);
        for p in [2usize, 4, 8] {
            let a = run_folded(&prog, states.clone(), p, &RunOptions::default()).unwrap();
            let l = crate::reference::run_folded_reference(
                &prog,
                states.clone(),
                p,
                &RunOptions::default(),
            )
            .unwrap();
            assert_eq!(a.states, l.states, "folded states diverge at p = {p}");
            assert_eq!(a.trace, l.trace, "folded trace diverges at p = {p}");
        }
    }
}
