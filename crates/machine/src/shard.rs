//! The sharded executor: one gang of workers over shard-owned mailboxes,
//! exchanging messages through lanes that change hands at a barrier
//! (dynamic and cross-shard planned supersteps), or with no
//! synchronization at all (fused shard-local planned supersteps).
//!
//! # Architecture
//!
//! Worker `w` of an `n_shards`-wide run exclusively owns the contiguous VP
//! shard `[w·v/n, (w+1)·v/n)` — its states, its pair of double-buffered
//! [`Arena`]s, its staging buffer and, in a run with a dynamic superstep, a
//! private [`StepMetricsBuilder`] for what it sends — mirroring the paper's
//! folding layout (processor `r` of `M(p)` simulates the `v/p` consecutive
//! VPs starting at `r·v/p`). Each superstep runs one of three protocols, chosen
//! by whether it carries a usable communication plan and whether that
//! plan's payloads provably stay shard-local at the current width.
//!
//! # One driver
//!
//! Whoever asks for a run — [`crate::engine::run`], plan capture, or a
//! [`crate::server::JobServer`] job — it goes through [`Executor::attempt`],
//! which holds the only `Shared` view and the only worker body. An executor
//! owns a [`Gang`] (`n − 1` parked OS threads; the caller is worker 0) and
//! the recyclable run state: the hand-over slots, barrier, per-worker
//! [`WorkerKit`]s, per-trace-shape shard cells, and the trace builder — plus
//! the dynamic tier's metrics builders, built only for a run that has a
//! dynamic superstep. `run` builds an executor for the call
//! and drops it — threads are spawned and joined per run; a `JobServer`
//! keeps one for its lifetime, so a warm job costs one [`Gang::scope`]
//! rendezvous and allocates nothing. Width 1 is the same entry with no gang: the
//! serial loop of `crate::engine` on the calling thread.
//!
//! # Hand-over
//!
//! Every superstep whose payloads cross shards — dynamic, or planned and
//! not fused — moves them through one lane system: each worker owns one
//! structure-of-arrays out-lane per destination shard (its own shard's for
//! shard-internal payloads), fills it before the barrier and swaps each
//! non-empty one into its hand-over slot, an O(1) exchange under an
//! uncontended `Mutex` that keeps both lanes' capacity. After the barrier
//! each receiver drains the slots addressed to it in ascending source-shard
//! order into its own write arena, each payload into its destination's next
//! slot, bounds-checked. The lanes change hands at the barrier, as the
//! paper's messages do at `sync`. A superstep's label bounds which shards
//! can talk: shard `w` exchanges messages only within its [`peer_span`].
//!
//! The slots come in two grids, alternating by barrier round: fused steps
//! between two cross-shard steps put no barrier between a receiver's drain
//! and a fast sender's next hand-over, so consecutive hand-overs must not
//! share slots; hand-overs two rounds apart are ordered by the barrier
//! between them.
//!
//! # Dynamic superstep protocol (two barriers)
//!
//! 1. **Exec + flush** — each worker runs its VPs (reading inboxes from its
//!    own read arena), then drains its staging buffer once: checking the
//!    destination range (and, under validation, the cluster constraint),
//!    recording every message it sends, shard-internal or not, into its
//!    shard's metrics builder, appending its message-log fragment, and
//!    pushing each payload into its out-lane for the destination shard.
//!    Dummies are metered there and go in no lane. It hands the out-lanes
//!    over. *Barrier.*
//! 2. **Gather + merge** — each worker counts the per-VP deliveries in the
//!    incoming slots (only the [`peer_span`] of this superstep's label
//!    under validation, every shard without it), sizes its write arena from
//!    the counts and drains the slots into it — a purely shard-local
//!    counting sort. Worker 0 then adds the shard builders into shard 0's
//!    (`O(n_shards · v)`: the degree counts are additive), finishes the sum
//!    into the superstep record, and concatenates log fragments in shard
//!    order: the builders and fragments are complete since the barrier and
//!    untouched until the next flush, which follows the next one.
//!    *Barrier*, then the arenas swap roles and the next superstep begins.
//!
//! # Planned superstep protocol (one barrier)
//!
//! A superstep with a fault-free [`StepPlan`] needs none of that: its
//! communication pattern is a static function of the VP index, proven
//! cluster-legal at compile time, with analytic metrics. Its payloads
//! still change hands at the barrier, as in `M(v)`, but through out-lanes
//! the sender fills without staging or metering, and into inboxes whose
//! sizes come from the plan:
//!
//! * **Prepare** — each worker sizes its own write arena: one enumeration
//!   of the declared routes of its shard cluster counts the payloads bound
//!   for each of its VPs, and [`Arena::prepare_write`] turns the counts
//!   into inbox ranges and cursors. No peer needs this layout.
//! * **Exec** — every worker runs its VPs with a [`CrossOut`] writer armed:
//!   each send pushes `(dst, payload)`, in send order, into the worker's
//!   own out-lane for the destination shard (its own shard included). The
//!   worker then checks its sends — the writer's exact checks and its
//!   written total against its declared total — and hands its out-lanes
//!   over. Then the **single barrier**.
//! * **Commit** — each worker drains the slots addressed to it into its
//!   write arena (an inbox that over- or under-fills commits nothing), and
//!   commits the arena; the arenas swap.
//!
//! There is nothing to merge: the coordinator pushes the
//! plan's precomputed `O(log v)` record (and materializes the log entry
//! from the route) during its own exec phase, overlapped with the other
//! workers' execution — the merge runs only for dynamic supersteps. Every
//! non-fused planned superstep therefore costs exactly **one barrier**.
//!
//! # Fused superstep protocol (zero barriers)
//!
//! A planned superstep whose compile-time payload-locality summary
//! ([`StepPlan::shard_local`]) proves every payload stays within its
//! sender's shard is, under the paper's folding, local computation on each
//! processor. So the worker runs it as the serial loop's planned step on its
//! own shard — the one routine `crate::engine::run_planned_step`, with the
//! shard's first VP as its base: it sizes its own write arena (from the
//! plan's `O(1)` [`crate::plan::PlanLayout`] when compile detected one,
//! else a count pass over its shard's routes), executes its VPs with the
//! one-arena writer [`crate::mailbox::DirectOut`], checks its written total
//! against the total it sized, and **commits immediately**. The coordinator
//! pushes the superstep record. It touches only the worker's own buffers: no
//! hand-over, no barrier, no round consumed. Consecutive fused supersteps
//! therefore form an unsynchronized per-worker pipeline; the gang next
//! meets at the first cross-shard or dynamic step. The decision is a pure
//! function of `(plan, n_shards, `[`RunOptions::fuse`]`)`, so every worker
//! takes the same arm and the barrier-round sequence stays deterministic —
//! which the failure protocol below relies on. `RunOptions { fuse: false,
//! .. }` reproduces the one-barrier protocol bit for bit.
//!
//! Delivery order is preserved bit for bit on all three protocols: lanes
//! are drained in ascending source-shard order, each internally in
//! ascending source-VP, then send, order — exactly the serial engine's
//! stable counting sort. A fused step's
//! sources are all shard-internal, so the serial step's counting-sort order
//! over the shard *is* the global order.
//!
//! # Failure protocol
//!
//! Workers park on the [`GangBarrier`], so no worker may ever unwind past
//! one while peers still wait. Every phase body runs under `catch_unwind`;
//! validation errors, plan mismatches, injected faults and panics (the
//! latter downgraded to the structured [`ModelError::VpPanic`] — step
//! name, offending VP, payload message preserved) park their evidence in
//! the shard cell and stamp the *barrier round* the failing worker is
//! about to wait at into the shared abort round. After every round, each
//! worker exits iff the abort round is at or before the round it just
//! passed — a decision every worker provably agrees on, because a stamp
//! for round `r` happens-before every release from round `r`, while a
//! faster peer's failure in a *later* phase stamps a later round that a
//! round-`r` check deliberately ignores. (The barrier sequence itself is a
//! deterministic function of the program: the per-step protocol choice
//! depends only on the static plan coverage.) The
//! run then reports the lowest-numbered shard's error — also the first in
//! source order, matching the serial engine, which downgrades closure
//! panics to the identical `VpPanic`. A rejected planned step is caught by
//! its sender before the barrier, so no receiver commits any of it.
//! Payloads a failed run left undelivered — in out-lanes or hand-over
//! slots, of either tier — are never re-observed: they travel as
//! `ManuallyDrop`, the next run on the same executor drops them when it
//! empties the lanes, and an executor dropped first leaks them, bounded by
//! one superstep's traffic.
//!
//! One failure point lies *after* its barrier: the planned protocol's
//! commit, which drains the handed-over lanes. A failure there (an inbox
//! that would over- or under-fill, or the `shard:commit` failpoint)
//! settles for the *next* round and pays exactly one more wait — the
//! round every healthy peer reaches next — so the gang still exits in
//! lockstep; if only fused steps follow, no peer waits again and the
//! worker simply leaves.
//!
//! ## Watchdog
//!
//! With [`RunOptions::stall_timeout`] set the barrier is watchdog-armed: a
//! waiter that outlasts the timeout while its round is incomplete
//! *poisons* the barrier; every current and future wait then returns an
//! error, each worker records a [`ModelError::GangStall`] and leaves
//! without further waits. A lost or descheduled worker thus becomes a
//! structured error instead of a process deadlock. A closure that *never*
//! returns still wedges its OS thread ([`Gang::scope`] must collect every
//! worker's done handshake before the run can return) — the documented limit
//! of in-process recovery.
//!
//! ## Fault injection
//!
//! Every phase boundary checks the run's [`nob_core::fault::FaultPlan`]
//! ([`RunOptions::faults`]) under its site name — `shard:prepare`,
//! `shard:exec_planned`, `shard:fused_exec` (the fused tier's whole
//! iteration), `shard:commit`, `shard:flush`, `shard:gather`,
//! `shard:merge` (worker 0, after its gather), plus the
//! `mailbox:bump_count` / `mailbox:prepare_write` edges inside gather —
//! *inside* the phase's `catch_unwind`, so both
//! error- and panic-flavor faults traverse exactly the abort path a real
//! failure would. A run without a plan pays one `Option` discriminant test
//! per phase (`tests/allocation.rs` pins the steady state unchanged), and
//! `tests/chaos.rs` sweeps site × flavor × width asserting structured
//! errors, lockstep exit, and bit-for-bit clean reruns.
//!
//! ## Telemetry
//!
//! The same phase boundaries carry telemetry spans when a sink is armed
//! ([`RunOptions::telemetry`]): each phase stamps its entry (worker, site,
//! superstep — what [`ModelError::GangStall`] attribution reads) and
//! records its duration on success, and every gang wait is a
//! `shard:barrier_wait` span plus an arrival stamp. Disarmed runs pay the
//! same single `Option` test per phase as disarmed fault injection and
//! never read the clock (see `nob_core::telemetry`).
//!
//! # Threads
//!
//! The workers are the gang's own OS threads — with the job server's
//! scheduler, the only threads this crate spawns. There is no task pool: a
//! barrier-coupled gang borrowing pool workers could deadlock against the
//! pool's other users, and oversubscription (`workers >` CPUs) must stay
//! legal: an explicit width is honoured whatever the CPU count. The default
//! shard count is only a number (see [`crate::engine::RunOptions::workers`]).

// The one `unsafe` in this module is the lifetime erasure of
// [`Gang::scope`], with its SAFETY note. Fused steps write through the
// one-arena writer under invariant 3 of `mailbox`; every message that
// crosses shards changes hands in a hand-over slot, and each slot is a
// `Mutex`.
#![allow(unsafe_code)]

use crate::engine::{
    exec_chunk, push_planned_record, run_planned_step, run_serial, runnable_plan, RunOptions,
    MAX_WORKERS,
};
use crate::mailbox::{
    bump_count, fault_edge, Arena, ChunkStage, CrossOut, DirectSink, Lane, LaneGrid,
    FAULT_BUMP_COUNT, FAULT_PREPARE_WRITE,
};
use crate::plan::{message_fault, StepPlan};
use crate::program::{Ctx, Envelope, Program, Superstep};
use nob_core::fault::FaultPlan;
use nob_core::metrics::{StepMetricsBuilder, TraceBuilder};
use nob_core::model::log2_exact;
use nob_core::telemetry::{Counter, Site, TelemetrySink};
use nob_core::{ModelError, StalledWorker};
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Fault-injection sites instrumented by this executor, one per phase
/// boundary of the two protocols (see the module docs' failure-protocol
/// section; the serial path's sites live in `crate::engine`, the
/// arena/count edges in `crate::mailbox`).
const FAULT_PREPARE: &str = "shard:prepare";
/// See [`FAULT_PREPARE`].
const FAULT_EXEC_PLANNED: &str = "shard:exec_planned";
/// See [`FAULT_PREPARE`].
const FAULT_COMMIT: &str = "shard:commit";
/// See [`FAULT_PREPARE`].
const FAULT_FLUSH: &str = "shard:flush";
/// See [`FAULT_PREPARE`].
const FAULT_GATHER: &str = "shard:gather";
/// See [`FAULT_PREPARE`].
const FAULT_MERGE: &str = "shard:merge";
/// See [`FAULT_PREPARE`]. Wraps the whole fused iteration (sizing, exec,
/// commit, record) — the zero-barrier tier's single failure site.
const FAULT_FUSED_EXEC: &str = "shard:fused_exec";

/// Per-shard state crossing the worker/coordinator boundary. Protected by a
/// mutex only to satisfy the type system: the barrier protocol already
/// serializes access (the owning worker holds it during exec/flush, the
/// coordinator's merge reads it between the two barriers of a dynamic
/// superstep), so every lock is uncontended.
struct ShardCell {
    /// The dynamic tier's metrics of the messages this shard sent in the
    /// current superstep: `None` in a run whose every step is planned, which
    /// never records through it.
    metrics: Option<StepMetricsBuilder>,
    /// This shard's slice of the superstep's message log, in source order.
    log_frag: Vec<(u32, u32)>,
    /// First model violation detected by this shard, if any.
    error: Option<ModelError>,
}

/// The pooled per-trace-shape shard cells — with the dynamic tier's
/// metrics builders, sized by `v`, only for a run that has a dynamic step —
/// kept per shape so a server alternating shapes does not re-allocate
/// builders every job.
struct ShapeRes {
    shape: (u32, bool),
    cells: Vec<Mutex<ShardCell>>,
}

impl ShapeRes {
    fn new(log_v: u32, log_shards: u32, dynamic: bool) -> Self {
        ShapeRes {
            shape: (log_v, dynamic),
            cells: (0..1usize << log_shards)
                .map(|_| {
                    Mutex::new(ShardCell {
                        metrics: dynamic.then(|| StepMetricsBuilder::new(log_v)),
                        log_frag: Vec::new(),
                        error: None,
                    })
                })
                .collect(),
        }
    }
}

/// The gang's shape-independent infrastructure: every piece of
/// executor-shared state that does **not** borrow from a particular program
/// or run — the hand-over slots, the barrier and the abort latch — recycled
/// across runs by [`GangCore::reset_for_job`].
struct GangCore<M> {
    /// The hand-over slots of every superstep whose payloads cross shards
    /// (dynamic, or planned and not fused), one grid per barrier-round
    /// parity: a step whose hand-over barrier is round `r` hands its
    /// out-lanes over through `handover[r % 2]`. Fused steps between two
    /// cross-shard steps put no barrier between a receiver's drain and a
    /// fast sender's next hand-over, so consecutive hand-overs must not
    /// share slots; two rounds apart, the barrier between them orders the
    /// drain before the reuse.
    handover: [LaneGrid<ManuallyDrop<M>>; 2],
    barrier: GangBarrier,
    /// Earliest barrier round preceded by an error or panic (`u64::MAX`
    /// while the run is healthy). A failing worker stamps the round it is
    /// *about* to wait at — before waiting — so after every round `r` the
    /// whole gang agrees on `abort_round <= r`: the stamp happens-before
    /// every peer's release from round `r`, and a *faster* peer failing in
    /// a later phase stamps a later round, which a round-`r` check
    /// deliberately ignores. (A live boolean would race: a fast worker's
    /// next-phase failure could be observed by a slow worker's earlier
    /// check, splitting the gang across different exit barriers.)
    abort_round: AtomicU64,
}

impl<M> GangCore<M> {
    /// Resets the recyclable run state before a run. Requires `&mut self` —
    /// the caller proves every worker has quiesced — and replaces the sticky
    /// in-run barrier poison with a fresh epoch, so one run's
    /// `GangStall`/`VpPanic` never outlives it:
    ///
    /// * the barrier restarts at a clean generation with the new run's
    ///   watchdog timeout;
    /// * the abort latch re-arms at `u64::MAX` (healthy);
    /// * the hand-over slots are emptied, their payloads dropped — a run
    ///   that aborted mid-superstep can leave staged traffic behind that
    ///   must not leak into the next run's drains.
    fn reset_for_job(&mut self, stall_timeout: Option<Duration>) {
        self.barrier.reset(stall_timeout);
        *self.abort_round.get_mut() = u64::MAX;
        for slots in &mut self.handover {
            slots.clear_all();
        }
    }
}

/// Executor-wide shared state: the per-run view over a [`GangCore`] and the
/// run's [`ShapeRes`] cells, plus everything borrowed from the program and
/// options.
struct Shared<'p, S, M> {
    prog: &'p Program<S, M>,
    core: &'p GangCore<M>,
    cells: &'p [Mutex<ShardCell>],
    /// The program's declared payload totals at this width
    /// ([`Program::send_totals`], `[step][shard]` row-major) — the
    /// cross-shard planned path's written-total check. Empty when no step
    /// runs planned.
    totals: &'p [u64],
    /// The run's fault-injection plan, if any (see the module docs).
    faults: Option<&'p FaultPlan>,
    /// The run's telemetry sink, if any ([`RunOptions::telemetry`]): every
    /// phase records an entry stamp + duration span under the same site
    /// taxonomy as fault injection (plus `shard:exec` for the dynamic exec
    /// half and `shard:barrier_wait` for gang waits). Disarmed runs pay one
    /// `Option` discriminant test per phase and never touch the clock.
    telemetry: Option<&'p TelemetrySink>,
    validate: bool,
    collect_log: bool,
    use_plans: bool,
    /// Whether planned supersteps proven shard-local may run on the fused
    /// zero-barrier tier (see [`RunOptions::fuse`]).
    fuse: bool,
    v: usize,
    log_v: u32,
    n_shards: usize,
    log_shards: u32,
}

/// The pooled, run-independent resources of one worker: everything a
/// [`Worker`] uses except its identity and its states slice. They live in
/// the [`Executor`] across runs ([`WorkerKit::reset`] between them), which
/// is what makes a server's warm steady state allocation-free *across*
/// jobs, not just within one.
struct WorkerKit<M> {
    stage: ChunkStage<M>,
    arenas: [Arena<M>; 2],
    dst_counts: Vec<u32>,
    cursors: Vec<u32>,
    /// The out-lanes of every superstep whose payloads cross shards, one
    /// per destination shard: a dynamic step's flush fills them, a
    /// cross-shard planned step lends them to its [`CrossOut`] writer, and
    /// either swaps them into the hand-over slots before its barrier.
    outs: Vec<Lane<ManuallyDrop<M>>>,
}

impl<M> WorkerKit<M> {
    fn new(vps: usize, n_shards: usize) -> Self {
        WorkerKit {
            stage: ChunkStage::new(vps),
            arenas: [Arena::new(vps), Arena::new(vps)],
            dst_counts: vec![0u32; vps],
            cursors: vec![0u32; vps],
            outs: (0..n_shards).map(|_| Lane::new()).collect(),
        }
    }

    /// Re-targets a pooled kit at a run of `vps` VPs per shard: staging,
    /// arenas and out-lanes are emptied, their messages dropped (a failed
    /// run can leave residue in any of them, including a still-set
    /// out-of-band flag, and a panic mid-exec drops the lent out-lanes,
    /// leaking what they held) and the scatter scratch is
    /// rebuilt all-zero — the between-supersteps invariant `prepare_write`
    /// maintains — while every buffer keeps its high-water capacity, so a
    /// warm same-shape run allocates nothing here.
    fn reset(&mut self, vps: usize, n_shards: usize) {
        self.stage.reset();
        self.stage.outbox.oob_dst = false;
        self.stage.outbox.mismatch = None;
        self.stage.outbox.cur_vp = 0;
        debug_assert!(self.stage.direct.is_none(), "direct sink across runs");
        for arena in &mut self.arenas {
            arena.recycle(vps);
        }
        self.dst_counts.clear();
        self.dst_counts.resize(vps, 0);
        self.cursors.clear();
        self.cursors.resize(vps, 0);
        for lane in &mut self.outs {
            lane.clear();
        }
        self.outs.resize_with(n_shards, Lane::new);
    }
}

/// One worker of one run: its identity, its states shard and its kit.
struct Worker<'a, S, M> {
    w: usize,
    vp_lo: usize,
    vps: usize,
    states: &'a mut [S],
    kit: &'a mut WorkerKit<M>,
    /// Payload total of the write arena prepared for the current
    /// cross-shard planned superstep, committed after its barrier.
    pending_total: usize,
}

/// Coordinator-only resources, held by worker 0 (which runs on the calling
/// thread).
struct Coord<'a> {
    trace: &'a mut TraceBuilder,
    log: Option<&'a mut Vec<Vec<(u32, u32)>>>,
}

/// Locks a mutex whose data stays valid whatever a panicking holder left
/// behind (the abort protocol never reads torn cells; the gang rendezvous
/// and the memo tables only ever hold complete values).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The gang barrier, optionally watchdog-armed. Without a timeout the
/// semantics match `std::sync::Barrier` (wait forever). With one, a waiter
/// that outlasts the timeout while its round is still incomplete *poisons*
/// the barrier: its own wait and every current and future wait return
/// `Err(missing)` — the number of workers that had not arrived when the
/// watchdog fired — so the whole gang drains deterministically instead of
/// deadlocking on a lost peer.
struct GangBarrier {
    state: Mutex<BarrierState>,
    cvar: Condvar,
    n: usize,
    timeout: Option<Duration>,
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    /// `Some(missing)` once the watchdog fired; sticky for the run.
    stalled: Option<usize>,
}

impl GangBarrier {
    fn new(n: usize, timeout: Option<Duration>) -> Self {
        GangBarrier {
            state: Mutex::new(BarrierState { arrived: 0, generation: 0, stalled: None }),
            cvar: Condvar::new(),
            n,
            timeout,
        }
    }

    /// Re-arms a pooled barrier for the next job: the stall poison — sticky
    /// *within* a run so a failed gang drains deterministically — is
    /// cleared, the generation advances so no historic waiter can confuse
    /// epochs, and the watchdog adopts the new job's timeout. `&mut self`
    /// proves no worker is waiting (a run only starts after the previous
    /// [`Gang::scope`] collected every worker's done handshake, which
    /// happens-after its final wait).
    fn reset(&mut self, timeout: Option<Duration>) {
        let st = self.state.get_mut().unwrap_or_else(|e| e.into_inner());
        st.arrived = 0;
        st.generation += 1;
        st.stalled = None;
        self.timeout = timeout;
    }

    /// Waits for the whole gang; `Err(missing)` reports a poisoned barrier.
    fn wait(&self) -> Result<(), usize> {
        let mut st = lock(&self.state);
        if let Some(missing) = st.stalled {
            return Err(missing);
        }
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation += 1;
            self.cvar.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        loop {
            st = match self.timeout {
                None => self.cvar.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(dur) => {
                    let (guard, timeout) =
                        self.cvar.wait_timeout(st, dur).unwrap_or_else(|e| e.into_inner());
                    let mut guard = guard;
                    if timeout.timed_out() && guard.generation == gen && guard.stalled.is_none() {
                        let missing = self.n - guard.arrived;
                        guard.stalled = Some(missing);
                        self.cvar.notify_all();
                        return Err(missing);
                    }
                    guard
                }
            };
            if st.generation != gen {
                return Ok(());
            }
            if let Some(missing) = st.stalled {
                return Err(missing);
            }
        }
    }
}

/// The erased form of the closure a [`Gang::scope`] runs.
type GangJob = &'static (dyn Fn(usize) + Sync);

/// The rendezvous between a [`Gang`]'s caller and its parked threads.
struct Rendezvous {
    state: Mutex<RendezvousState>,
    /// Workers park here between scopes.
    start: Condvar,
    /// The scope's caller parks here until every worker is done.
    done: Condvar,
}

struct RendezvousState {
    /// Bumped once per scope; each worker runs each epoch's job once.
    epoch: u64,
    job: Option<GangJob>,
    /// Workers that have not yet posted this epoch's done handshake.
    running: usize,
    /// A worker's escaped panic, re-raised on the caller by the scope.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

/// `n − 1` parked OS threads that, together with the calling thread, run one
/// closure per [`Gang::scope`] — the executor's only thread-spawn site. The
/// threads live as long as the gang; dropping it joins them.
struct Gang {
    rv: Arc<Rendezvous>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Gang {
    /// Spawns the `n − 1` threads of a gang of width `n ≥ 1`.
    fn new(n: usize) -> Self {
        let rv = Arc::new(Rendezvous {
            state: Mutex::new(RendezvousState {
                epoch: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..n)
            .map(|w| {
                let rv = Arc::clone(&rv);
                std::thread::Builder::new()
                    .name(format!("nob-gang-{w}"))
                    .spawn(move || gang_worker(w, &rv))
                    // allow-panic: thread spawn is unrecoverable setup; the
                    // width is capped (`MAX_WORKERS`) so that a legal
                    // request cannot make it fail.
                    .expect("spawn gang worker")
            })
            .collect();
        Gang { rv, handles }
    }

    /// Runs `f(w)` on every parked thread `w` in `1..n` and `f(0)` on the
    /// caller, returning only after every worker has posted its done
    /// handshake — **including when `f(0)` unwinds**: the wait sits in a
    /// drop guard. A panic escaping a worker's `f(w)` is re-raised here.
    fn scope(&mut self, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: lifetime erasure only — the types are identical but for
        // the reference lifetime. The erased reference is published solely
        // through `rv.state`; a worker copies it out, calls it and drops it
        // *before* posting its done handshake, and `AllDone` below (dropped
        // on return and on unwind alike) does not let this frame end until
        // all `running` handshakes are in and the slot is cleared. `&mut
        // self` keeps scopes from overlapping. So no use of the reference
        // outlives the borrow `f` it was made from — the argument of the
        // standard library's scoped threads with the join replaced by the
        // handshake, whose mutex carries the happens-before edges.
        let job: GangJob = unsafe { std::mem::transmute(f) };
        {
            let mut st = lock(&self.rv.state);
            st.epoch += 1;
            st.job = Some(job);
            st.running = self.handles.len();
        }
        self.rv.start.notify_all();
        let all_done = AllDone(&self.rv);
        f(0);
        drop(all_done);
        if let Some(payload) = lock(&self.rv.state).panic.take() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Waits out every worker of the current scope when dropped.
struct AllDone<'a>(&'a Rendezvous);

impl Drop for AllDone<'_> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        while st.running > 0 {
            st = self.0.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
    }
}

impl Drop for Gang {
    fn drop(&mut self) {
        lock(&self.rv.state).shutdown = true;
        self.rv.start.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The loop of parked gang thread `w`: wait for the next epoch, run its job,
/// post the done handshake, repeat until shutdown.
fn gang_worker(w: usize, rv: &Rendezvous) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock(&rv.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.job.filter(|_| st.epoch != seen) {
                    seen = st.epoch;
                    break job;
                }
                st = rv.start.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(w)));
        let mut st = lock(&rv.state);
        if let Err(payload) = outcome {
            st.panic.get_or_insert(payload);
        }
        st.running -= 1;
        if st.running == 0 {
            rv.done.notify_one();
        }
    }
}

/// The one driver (see the module docs): a gang plus the run state it
/// recycles, behind the single entry [`Executor::attempt`].
pub(crate) struct Executor<M> {
    /// `None` at width 1, which needs neither threads nor grids.
    gang: Option<GangState<M>>,
    /// The last run's trace; materialize it with
    /// [`TraceBuilder::snapshot`].
    pub(crate) trace: TraceBuilder,
    /// Barrier rounds the gang walked in the last run — a protocol
    /// diagnostic: dynamic supersteps cost two, cross-shard planned
    /// supersteps one, fused ones none; on failure, the round the gang
    /// exited at. 0 on the serial path.
    pub(crate) rounds: u64,
}

struct GangState<M> {
    gang: Gang,
    core: GangCore<M>,
    /// One kit per worker, built on the worker's first run. The mutexes are
    /// uncontended: worker `w` alone locks `kits[w]`, for a whole run.
    kits: Vec<Mutex<Option<WorkerKit<M>>>>,
    shapes: Vec<ShapeRes>,
}

impl<M: Send> Executor<M> {
    /// An executor of `n_shards` workers (a power of two); spawns the gang's
    /// `n_shards − 1` threads.
    pub(crate) fn new(n_shards: usize) -> Self {
        debug_assert!(n_shards.is_power_of_two() && n_shards <= MAX_WORKERS);
        let gang = (n_shards >= 2).then(|| GangState {
            gang: Gang::new(n_shards),
            core: GangCore {
                handover: [LaneGrid::new(n_shards), LaneGrid::new(n_shards)],
                barrier: GangBarrier::new(n_shards, None),
                abort_round: AtomicU64::new(u64::MAX),
            },
            kits: (0..n_shards).map(|_| Mutex::new(None)).collect(),
            shapes: Vec::new(),
        });
        Executor { gang, trace: TraceBuilder::new(1, 1, 0), rounds: 0 }
    }

    /// Executes `prog` over `states` in place at `width` workers — the
    /// executor's own width, or 1 for the serial loop — on a reset trace;
    /// returns the message log when the options ask for one. Results are
    /// bit-for-bit identical at every width.
    #[allow(clippy::type_complexity)]
    pub(crate) fn attempt<S: Send>(
        &mut self,
        prog: &Program<S, M>,
        states: &mut [S],
        opts: &RunOptions,
        width: usize,
    ) -> Result<Option<Vec<Vec<(u32, u32)>>>, ModelError> {
        self.trace.reset(prog.v(), prog.n(), prog.steps().len());
        let mut log = opts.collect_messages.then(|| Vec::with_capacity(prog.steps().len()));
        let (rounds, outcome) = match self.gang.as_mut().filter(|_| width >= 2) {
            Some(gang) => {
                debug_assert_eq!(width, gang.kits.len(), "a gang runs at its own width");
                gang.run(prog, states, opts, &mut self.trace, &mut log)
            }
            None => (0, run_serial(prog, states, opts, &mut self.trace, &mut log, None)),
        };
        self.rounds = rounds;
        outcome?;
        Ok(log)
    }
}

impl<M: Send> GangState<M> {
    /// Runs `prog` on the gang: recycles the pooled state, hands every
    /// worker its `split_at_mut` shard of `states`, and walks the superstep
    /// loop inside one [`Gang::scope`]. Returns the barrier rounds walked
    /// and the lowest-numbered shard's error, if any — also the first in
    /// source order, matching the serial loop.
    fn run<S: Send>(
        &mut self,
        prog: &Program<S, M>,
        states: &mut [S],
        opts: &RunOptions,
        trace: &mut TraceBuilder,
        log: &mut Option<Vec<Vec<(u32, u32)>>>,
    ) -> (u64, Result<(), ModelError>) {
        let n_shards = self.kits.len();
        let log_shards = log2_exact(n_shards);
        let (v, log_v) = (prog.v(), prog.log_v());
        debug_assert!(log_shards <= log_v, "shards must not outnumber VPs");
        let vps = v / n_shards;
        let tele = opts.telemetry.as_deref();

        // --- recycle the pooled run state -------------------------------
        let t0 = tele.map(|_| Instant::now());
        // The serial loop's tier census: the dynamic tier's metrics builders
        // exist only for a run that has a step without a runnable plan.
        let dynamic = prog.steps().iter().any(|s| runnable_plan(s, opts.use_plans).is_none());
        let shape = (log_v, dynamic);
        let at = self.shapes.iter().position(|s| s.shape == shape).unwrap_or_else(|| {
            self.shapes.push(ShapeRes::new(log_v, log_shards, dynamic));
            self.shapes.len() - 1
        });
        let cells = &mut self.shapes[at].cells;
        for cell in cells.iter_mut() {
            // Each flush empties its shard's builder before metering; only a
            // failed run's residue needs clearing here.
            let cell = cell.get_mut().unwrap_or_else(|e| e.into_inner());
            cell.error = None;
            cell.log_frag.clear();
        }
        self.core.reset_for_job(opts.stall_timeout);
        if let (Some(tl), Some(t0)) = (tele, t0) {
            tl.add(Counter::EpochResetNanos, t0.elapsed().as_nanos() as u64);
            tl.add(Counter::EpochResetCount, 1);
        }

        // --- run-level prepare: the program's declared send totals --------
        let t0 = tele.map(|tl| {
            tl.enter(0, Site::ShardPrepare, 0);
            Instant::now()
        });
        let planned = opts.use_plans && prog.planned_steps() > 0;
        let totals = planned.then(|| prog.send_totals(n_shards));
        if let (Some(tl), Some(t0)) = (tele, t0) {
            tl.record(0, Site::ShardPrepare, t0.elapsed());
        }

        let shared = Shared {
            prog,
            core: &self.core,
            cells,
            totals: totals.as_deref().unwrap_or_default(),
            faults: opts.faults.as_deref(),
            telemetry: tele,
            validate: opts.validate,
            collect_log: log.is_some(),
            use_plans: opts.use_plans,
            fuse: opts.fuse,
            v,
            log_v,
            n_shards,
            log_shards,
        };

        // --- seat every worker: its shard of the states, plus the
        // coordinator's extras for worker 0, each taken once by its owner ---
        let seats = [const { Mutex::new(None) }; MAX_WORKERS];
        for (seat, shard) in seats.iter().zip(states.chunks_mut(vps)) {
            *lock(seat) = Some(shard);
        }
        let coord = Mutex::new(Some(Coord { trace, log: log.as_mut() }));
        let rounds = AtomicU64::new(0);
        let kits = &self.kits;
        let t0 = tele.map(|_| Instant::now());
        self.gang.scope(&|w| {
            let coord = if w == 0 {
                if let (Some(tl), Some(t0)) = (tele, t0) {
                    tl.add(Counter::DispatchNanos, t0.elapsed().as_nanos() as u64);
                    tl.add(Counter::DispatchCount, 1);
                }
                lock(&coord).take()
            } else {
                None
            };
            let mut slot = lock(&kits[w]);
            let kit = match &mut *slot {
                Some(kit) => {
                    if let Some(tl) = tele {
                        tl.add(Counter::PoolReuses, 1);
                    }
                    kit.reset(vps, n_shards);
                    kit
                }
                empty => empty.insert(WorkerKit::new(vps, n_shards)),
            };
            let states = lock(&seats[w]).take().unwrap_or_default();
            let mut me = Worker { w, vp_lo: w * vps, vps, states, kit, pending_total: 0 };
            let walked = shard_loop(&mut me, &shared, coord);
            if w == 0 {
                rounds.store(walked, Ordering::Relaxed);
            }
        });

        let first_error = shared.cells.iter().find_map(|cell| lock(cell).error.take());
        (rounds.into_inner(), first_error.map_or(Ok(()), Err))
    }
}

/// Fault-injection check at one of this executor's instrumented phase
/// boundaries; free (one `Option` discriminant test) when no plan is armed.
#[inline]
fn fault_check<S, M>(
    shared: &Shared<'_, S, M>,
    site: &'static str,
    w: usize,
    t: usize,
) -> Result<(), ModelError> {
    match shared.faults {
        Some(plan) => plan.check(site, w, t),
        None => Ok(()),
    }
}

/// Opens a telemetry span for phase `site` on worker `w` at superstep `t`:
/// stamps the slot's last-entered phase (what stall attribution reads) and
/// takes the clock. Free — one `Option` discriminant test, no `Instant` —
/// when the run's sink is disarmed.
#[inline]
fn span_start<S, M>(shared: &Shared<'_, S, M>, w: usize, site: Site, t: usize) -> Option<Instant> {
    shared.telemetry.map(|tl| {
        tl.enter(w, site, t);
        Instant::now()
    })
}

/// Closes a span opened by [`span_start`], adding the elapsed nanos to the
/// worker's slot. Failure paths simply never close their span — the entry
/// stamp survives for stall attribution, the duration is not recorded.
#[inline]
fn span_end<S, M>(shared: &Shared<'_, S, M>, w: usize, site: Site, t0: Option<Instant>) {
    if let (Some(tl), Some(t0)) = (shared.telemetry, t0) {
        tl.record(w, site, t0.elapsed());
    }
}

/// Attributes a watchdog stall: every worker whose latest recorded barrier
/// arrival predates `round` is reported with the phase it was last seen
/// entering. Empty when telemetry is disarmed — attribution needs the armed
/// per-worker stamps.
fn stalled_workers<S, M>(shared: &Shared<'_, S, M>, round: u64) -> Vec<StalledWorker> {
    let Some(tl) = shared.telemetry else {
        return Vec::new();
    };
    (0..shared.n_shards)
        .filter(|&w| tl.arrived_round(w).is_none_or(|r| r < round))
        .map(|w| {
            let (site, superstep) = match tl.last_phase(w) {
                Some((s, t)) => (Some(s.name()), t),
                None => (None, 0),
            };
            StalledWorker { worker: w, site, superstep }
        })
        .collect()
}

/// Waits at the gang barrier. On a watchdog stall this worker records the
/// structured [`ModelError::GangStall`] in its own cell (every worker
/// records one, so the run reports the lowest shard's, per the usual rule)
/// and must exit its loop without further waits; returns whether the round
/// completed normally.
fn gang_wait<S, M>(shared: &Shared<'_, S, M>, w: usize, next_round: u64) -> bool {
    // The arrival stamp lands *before* the wait: a worker blocked at the
    // barrier has arrived, and must not be misattributed as missing by a
    // peer whose watchdog fires while this one is still parked.
    let t0 = shared.telemetry.map(|tl| {
        tl.enter(w, Site::ShardBarrierWait, next_round as usize);
        tl.arrive(w, next_round);
        Instant::now()
    });
    let waited = shared.core.barrier.wait();
    if let (Some(tl), Some(t0)) = (shared.telemetry, t0) {
        tl.record(w, Site::ShardBarrierWait, t0.elapsed());
    }
    match waited {
        Ok(()) => true,
        Err(missing) => {
            let stalled = stalled_workers(shared, next_round);
            lock(&shared.cells[w]).error.get_or_insert(ModelError::GangStall {
                round: next_round,
                missing,
                stalled,
            });
            false
        }
    }
}

/// Registers a phase outcome in the shard cell: model errors verbatim,
/// panics downgraded to the structured [`ModelError::VpPanic`] (`step` and
/// `vp` attribute the failure; the serial path produces the identical
/// error). Either stamps `next_round` — the barrier round this worker is
/// about to wait at — into the abort round, the gang's common exit point
/// (see `GangCore::abort_round`).
fn settle<S, M>(
    shared: &Shared<'_, S, M>,
    w: usize,
    outcome: std::thread::Result<Result<(), ModelError>>,
    step: &'static str,
    vp: usize,
    next_round: u64,
) {
    let err = match outcome {
        Ok(Ok(())) => return,
        Ok(Err(e)) => e,
        Err(p) => crate::engine::vp_panic_error(step, vp, p),
    };
    lock(&shared.cells[w]).error.get_or_insert(err);
    // ordering: SeqCst — the round-stamped abort proof (module docs) assumes
    // one total order over every abort publication and every worker's
    // post-barrier check, so no worker can observe round r+1's barrier
    // without also observing an abort stamped at or before r+1. Cold
    // failure path: the strongest fence costs nothing measurable here and
    // spares a subtler Acquire/Release argument.
    shared.core.abort_round.fetch_min(next_round, Ordering::SeqCst);
}

/// Whether `plan`'s superstep runs on the **fused** zero-barrier tier:
/// fusion is enabled and the plan proved at compile time that every payload
/// stays inside its source's shard. A purely static predicate (of the plan
/// and the run options, never of execution state), so all workers always
/// agree on it and the gang's barrier sequences stay deterministic.
#[inline]
fn fused<S, M>(shared: &Shared<'_, S, M>, plan: &StepPlan) -> bool {
    shared.fuse && plan.shard_local(shared.log_shards)
}

/// The shards that shard `w` may exchange messages with in a superstep of
/// sync label `label` on a `2^log_shards`-wide gang, its own index included.
/// Shard `w` runs the `w`-th contiguous block of VPs (the paper's folding
/// layout), so an `i`-cluster spans the `n_shards >> i` shards that share
/// the top `i` shard-index bits, and a label `≥ log_shards` keeps a
/// superstep shard-local.
#[inline]
fn peer_span(w: usize, label: u32, log_shards: u32) -> std::ops::Range<usize> {
    let c = 1usize << (log_shards - label.min(log_shards));
    let lo = w - w % c;
    lo..lo + c
}

/// Whether healthy workers wait at another barrier after superstep `t`:
/// iff some later step is not fused. A worker that fails where its peers
/// go on without waiting for it — in a fused step, or in a commit after
/// its barrier — pays that one wait iff this holds, or it would wait
/// alone. Two workers failing at *different* such points agree on it:
/// everything between their two steps must be fused (a barrier in between
/// would have exited the later worker on the earlier one's abort stamp),
/// so both see the same first non-fused successor.
fn peers_wait_again<S, M>(shared: &Shared<'_, S, M>, t: usize) -> bool {
    shared.prog.steps()[t + 1..]
        .iter()
        .any(|s| runnable_plan(s, shared.use_plans).is_none_or(|p| !fused(shared, p)))
}

/// The per-worker superstep loop (see the module docs for the two barrier
/// protocols). `coord` is `Some` exactly for worker 0. Returns the number of
/// barrier rounds walked.
fn shard_loop<S: Send, M: Send>(
    me: &mut Worker<'_, S, M>,
    shared: &Shared<'_, S, M>,
    mut coord: Option<Coord<'_>>,
) -> u64 {
    let mut rounds = 0u64;
    let mut read_idx = 0usize;
    let steps = shared.prog.steps();
    for (t, step) in steps.iter().enumerate() {
        let plan = step.plan().filter(|_| shared.use_plans);

        // --- fused path: shard-local planned superstep, zero barriers -----
        if let Some(plan) = runnable_plan(step, shared.use_plans).filter(|p| fused(shared, p)) {
            // Every payload stays in this worker's shard, so the step is the
            // serial loop's planned step on the shard: it touches only this
            // worker's buffers and commits at once — no hand-over, no
            // barrier, no round consumed (invariant 3).
            let t0 = span_start(shared, me.w, Site::ShardFusedExec, t);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fault_check(shared, FAULT_FUSED_EXEC, me.w, t)?;
                run_planned_step(
                    step,
                    plan,
                    me.vp_lo,
                    me.states,
                    &mut me.kit.arenas,
                    read_idx,
                    &mut me.kit.dst_counts,
                    &mut me.kit.cursors,
                    None,
                    &mut me.kit.stage,
                    true,
                )?;
                if let Some(c) = coord.as_mut() {
                    push_planned_record(c.trace, c.log.as_deref_mut(), step.label, plan);
                }
                Ok(())
            }));
            if !matches!(outcome, Ok(Ok(()))) {
                let vp = if outcome.is_err() { me.kit.stage.panic_vp() } else { me.vp_lo };
                settle(shared, me.w, outcome, step.name, vp, rounds + 1);
                if peers_wait_again(shared, t) && gang_wait(shared, me.w, rounds + 1) {
                    rounds += 1;
                }
                break;
            }
            span_end(shared, me.w, Site::ShardFusedExec, t0);
            read_idx = 1 - read_idx;
            continue;
        }

        // --- planned path: payloads change hands at one barrier -----------
        if let Some(plan) = runnable_plan(step, shared.use_plans) {
            let widx = 1 - read_idx;
            let parity = ((rounds + 1) % 2) as usize;
            // Prepare, then exec: both before the one barrier, each its own
            // span; a failed prepare skips the exec.
            let t0 = span_start(shared, me.w, Site::ShardPrepare, t);
            let mut outcome = catch_unwind(AssertUnwindSafe(|| {
                fault_check(shared, FAULT_PREPARE, me.w, t)?;
                prepare_cross(me, shared, step.label, plan, widx)
            }));
            if matches!(outcome, Ok(Ok(()))) {
                span_end(shared, me.w, Site::ShardPrepare, t0);
                let t0 = span_start(shared, me.w, Site::ShardExecPlanned, t);
                outcome = catch_unwind(AssertUnwindSafe(|| {
                    fault_check(shared, FAULT_EXEC_PLANNED, me.w, t)?;
                    exec_cross(me, shared, step, plan, t, read_idx, parity)?;
                    if let Some(c) = coord.as_mut() {
                        // Nothing to merge for a planned superstep: push the
                        // precomputed record here, overlapped with the other
                        // workers' exec phases — no merge barrier.
                        push_planned_record(c.trace, c.log.as_deref_mut(), step.label, plan);
                    }
                    Ok(())
                }));
                if matches!(outcome, Ok(Ok(()))) {
                    span_end(shared, me.w, Site::ShardExecPlanned, t0);
                }
            }
            let vp = if outcome.is_err() { me.kit.stage.panic_vp() } else { me.vp_lo };
            settle(shared, me.w, outcome, step.name, vp, rounds + 1);
            if !gang_wait(shared, me.w, rounds + 1) {
                break;
            }
            rounds += 1;
            // ordering: SeqCst load — pairs with settle's fetch_min
            // publication (see that site's justification).
            if shared.core.abort_round.load(Ordering::SeqCst) <= rounds {
                break;
            }
            // Every sender has handed its lanes over: drain the incoming
            // ones into this worker's write arena and publish it to the
            // next superstep's read phase. This is the one failure point
            // *after* its barrier (see the module docs): on failure, settle
            // for the next round and pay exactly one more wait — the round
            // every healthy peer reaches next — so the gang still exits in
            // lockstep; if no barrier follows, there is none to pay.
            let t0 = span_start(shared, me.w, Site::ShardCommit, t);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                fault_check(shared, FAULT_COMMIT, me.w, t)?;
                let srcs = peer_span(me.w, step.label, shared.log_shards);
                drain_handover(me, shared, step, srcs, parity, widx, me.pending_total)
            }));
            if !matches!(outcome, Ok(Ok(()))) {
                let vp = if outcome.is_err() { me.kit.stage.panic_vp() } else { me.vp_lo };
                settle(shared, me.w, outcome, step.name, vp, rounds + 1);
                if peers_wait_again(shared, t) && gang_wait(shared, me.w, rounds + 1) {
                    rounds += 1;
                }
                break;
            }
            span_end(shared, me.w, Site::ShardCommit, t0);
            read_idx = 1 - read_idx;
            continue;
        }

        // --- dynamic path: payloads change hands at the first of two
        // barriers ---------------------------------------------------------
        let widx = 1 - read_idx;
        let parity = ((rounds + 1) % 2) as usize;

        // --- phase 1: exec + flush + hand-over ----------------------------
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fault_check(shared, FAULT_FLUSH, me.w, t)?;
            if shared.validate {
                // A *faulted* plan is an error under validation; without it
                // the step simply runs on this dynamic path (the serial
                // path's policy, checked here so the gang aborts in
                // lockstep through the normal protocol).
                if let Some(fault) = plan.and_then(|p| p.fault()) {
                    return Err(fault.clone());
                }
            }
            let t0 = span_start(shared, me.w, Site::ShardExec, t);
            {
                let read = &mut me.kit.arenas[read_idx];
                let (slab, offsets) = read.take_read();
                let stage = &mut me.kit.stage;
                exec_chunk(shared.prog, step, me.vp_lo, me.states, slab, offsets, stage);
            }
            span_end(shared, me.w, Site::ShardExec, t0);
            let t0 = span_start(shared, me.w, Site::ShardFlush, t);
            let mut cell = lock(&shared.cells[me.w]);
            flush(me, shared, &mut cell, step, parity)?;
            span_end(shared, me.w, Site::ShardFlush, t0);
            Ok(())
        }));
        let vp = if outcome.is_err() { me.kit.stage.panic_vp() } else { me.vp_lo };
        settle(shared, me.w, outcome, step.name, vp, rounds + 1);
        if !gang_wait(shared, me.w, rounds + 1) {
            break;
        }
        rounds += 1;
        // ordering: SeqCst load — pairs with settle's fetch_min publication
        // (see that site's justification).
        if shared.core.abort_round.load(Ordering::SeqCst) <= rounds {
            break;
        }

        // --- phase 2: gather, then the coordinator's merge ----------------
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fault_check(shared, FAULT_GATHER, me.w, t)?;
            let t0 = span_start(shared, me.w, Site::ShardGather, t);
            gather(me, shared, step, t, widx, parity)?;
            span_end(shared, me.w, Site::ShardGather, t0);
            if let Some(c) = coord.as_mut() {
                // Every flush completed its shard's builder and log
                // fragment before the barrier, and the next flush follows
                // the next barrier: no merge barrier of its own.
                fault_check(shared, FAULT_MERGE, 0, t)?;
                let t0 = span_start(shared, 0, Site::ShardMerge, t);
                merge_superstep(c, shared, step.label);
                span_end(shared, 0, Site::ShardMerge, t0);
            }
            Ok(())
        }));
        settle(shared, me.w, outcome, step.name, me.vp_lo, rounds + 1);
        if !gang_wait(shared, me.w, rounds + 1) {
            break;
        }
        rounds += 1;
        // ordering: SeqCst load — pairs with settle's fetch_min publication
        // (see that site's justification).
        if shared.core.abort_round.load(Ordering::SeqCst) <= rounds {
            break;
        }
        read_idx = 1 - read_idx;
    }
    // Mailbox seam: this worker's double-buffered arena footprint is the
    // run's per-worker memory high-water signal — keep the widest worker
    // seen so far in the gauge.
    if let Some(tl) = shared.telemetry {
        tl.set_max(
            Counter::ArenaBytes,
            me.kit.arenas[0].slab_bytes() + me.kit.arenas[1].slab_bytes(),
        );
    }
    rounds
}

/// Sizes this worker's buffers for a cross-shard planned superstep of sync
/// label `label`. One enumeration of the shard cluster's declared routes
/// counts the payloads bound for each of this shard's VPs — checked, a
/// capped count would mis-size the arena — which the ordinary
/// [`Arena::prepare_write`] turns into write arena `widx`'s inbox ranges
/// and cursors; the same pass counts this shard's payloads per destination
/// shard, and each out-lane reserves its count, so a lane is allocated
/// once at its size instead of growing into it.
fn prepare_cross<S, M: Send>(
    me: &mut Worker<'_, S, M>,
    shared: &Shared<'_, S, M>,
    label: u32,
    plan: &StepPlan,
    widx: usize,
) -> Result<(), ModelError> {
    debug_assert!(!fused(shared, plan), "a fused step sizes its own arena");
    // The cluster span is sound without runtime validation: the plan is
    // fault-free, so every declared (src, dst) pair was proven
    // cluster-legal at compile time.
    let span = peer_span(me.w, label, shared.log_shards);
    let shard_shift = shared.log_v - shared.log_shards;
    let (w, vp_lo, vps) = (me.w, me.vp_lo, me.vps);
    // `dst_counts` is all-zero here, as always between supersteps.
    let dst_counts = &mut me.kit.dst_counts;
    let mut outgoing = [0usize; MAX_WORKERS];
    let mut err = None;
    plan.for_each_message(span.start * vps..span.end * vps, |src, dst, data| {
        if !data || err.is_some() {
            return;
        }
        if src >> shard_shift == w {
            outgoing[dst >> shard_shift] += 1;
        }
        if dst >> shard_shift == w {
            if let Err(e) = bump_count(&mut dst_counts[dst - vp_lo]) {
                err = Some(e);
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    for (lane, &n) in me.kit.outs.iter_mut().zip(&outgoing) {
        lane.reserve(n);
    }
    me.pending_total =
        me.kit.arenas[widx].prepare_write(&mut me.kit.dst_counts, &mut me.kit.cursors);
    Ok(())
}

/// Executes one cross-shard planned superstep on this worker's VPs — one
/// call of the step's chunk kernel ([`crate::program::ChunkKernel`]) over
/// the shard — with the [`CrossOut`] writer armed over the worker's
/// out-lanes. Then it checks its sends — the writer's exact checks
/// (machine range, cluster span, a payload past the route's last slot) and
/// the written total against its row of [`Program::send_totals`] — and
/// only if all pass, swaps each out-lane of the span into its hand-over
/// slot of this barrier round's `parity`. A rejected step is caught here,
/// before the barrier, so no receiver commits any of it; its payloads stay
/// in the out-lanes and leak.
fn exec_cross<S, M: Send>(
    me: &mut Worker<'_, S, M>,
    shared: &Shared<'_, S, M>,
    step: &Superstep<S, M>,
    plan: &StepPlan,
    t: usize,
    read_idx: usize,
    parity: usize,
) -> Result<(), ModelError> {
    let span = peer_span(me.w, step.label, shared.log_shards);
    let shard_shift = shared.log_v - shared.log_shards;
    let lanes = std::mem::take(&mut me.kit.outs);
    let sink = CrossOut::new(lanes, span.clone(), shard_shift, shared.v);
    // The slot is empty between planned steps: forgetting what `replace`
    // returns keeps the sink's drop glue out of this function.
    std::mem::forget(me.kit.stage.direct.replace(DirectSink::Cross(sink)));
    {
        let read = &mut me.kit.arenas[read_idx];
        let (slab, offsets) = read.take_read();
        let base = Ctx { vp: me.vp_lo, v: shared.v, log_v: shared.log_v, n: shared.prog.n() };
        step.kernel().run_chunk(&step.exec, base, me.states, slab, offsets, &mut me.kit.stage);
    }
    let Some(DirectSink::Cross(out)) = me.kit.stage.direct.take() else {
        unreachable!("a cross-shard planned step arms a cross-shard sink")
    };
    let (lanes, written, fault) = out.finish();
    me.kit.outs = lanes;
    if let Some((vp, reason)) = fault {
        return Err(ModelError::PlanMismatch { step: step.name, vp, reason });
    }
    if written != shared.totals[t * shared.n_shards + me.w] {
        // Blame the first starved receiver: the sender is unknown, the
        // starved inbox is not.
        let srcs = me.vp_lo..me.vp_lo + me.vps;
        let dsts = span.start * me.vps..span.end * me.vps;
        let vp = starved_inbox(plan, srcs, dsts, &me.kit.outs).unwrap_or(me.vp_lo);
        return Err(ModelError::PlanMismatch {
            step: step.name,
            vp,
            reason: "destination received fewer payload messages than the route declares",
        });
    }
    hand_over(&mut me.kit.outs, &shared.core.handover[parity], me.w);
    Ok(())
}

/// Swaps each non-empty out-lane of worker `w` into its slot of `slots`,
/// an O(1) exchange under an uncontended `Mutex` that keeps both lanes'
/// capacity. An empty out-lane stays: the slot it would replace is empty
/// too (its receiver drained it), and swapping it would trade the lane's
/// capacity for the slot's.
fn hand_over<M>(outs: &mut [Lane<ManuallyDrop<M>>], slots: &LaneGrid<ManuallyDrop<M>>, w: usize) {
    for (ds, out) in outs.iter_mut().enumerate() {
        if !out.dsts.is_empty() {
            std::mem::swap(&mut *slots.lane(w, ds), out);
        }
    }
}

/// The lowest destination VP to which the sources `srcs` sent fewer
/// payloads (the out-lanes `sent`) than `plan` declares — the failure path
/// of [`exec_cross`]'s written-total check. Every declared and every sent
/// destination lies in the cluster's VPs `dsts`: the route is proven
/// cluster-legal, and the writer refused any send outside the span.
fn starved_inbox<M>(
    plan: &StepPlan,
    srcs: std::ops::Range<usize>,
    dsts: std::ops::Range<usize>,
    sent: &[Lane<ManuallyDrop<M>>],
) -> Option<usize> {
    let mut owed = vec![0i64; dsts.len()];
    plan.for_each_message(srcs, |_, dst, data| {
        if data {
            owed[dst - dsts.start] += 1;
        }
    });
    for &dst in sent.iter().flat_map(|lane| &lane.dsts) {
        owed[dst as usize - dsts.start] -= 1;
    }
    owed.iter().position(|&n| n > 0).map(|d| dsts.start + d)
}

/// Drains the hand-over slots of `parity` from the source shards `srcs`
/// addressed to this worker, in ascending source-shard order, into write
/// arena `widx`, whose inboxes were sized for `total` payloads, and commits
/// it — the receive half of every hand-over. Every payload takes its
/// destination's next slot, bounds-checked against the destination's inbox
/// range; an inbox that would over- or under-fill commits nothing (its
/// payloads leak) and is a [`ModelError::PlanMismatch`] naming it. A
/// dynamic superstep sizes its inboxes from these very slots, so only a
/// planned one can mismatch.
fn drain_handover<S, M: Send>(
    me: &mut Worker<'_, S, M>,
    shared: &Shared<'_, S, M>,
    step: &Superstep<S, M>,
    srcs: std::ops::Range<usize>,
    parity: usize,
    widx: usize,
    total: usize,
) -> Result<(), ModelError> {
    let vp_lo = me.vp_lo;
    let cursors = &mut me.kit.cursors;
    let write = &mut me.kit.arenas[widx];
    let (slab, offsets) = write.split_for_scatter(total);
    let (mut written, mut over) = (0usize, None);
    for s in srcs {
        shared.core.handover[parity].lane(s, me.w).drain_deliveries(|dst, m| {
            let d = dst as usize - vp_lo;
            let cur = cursors[d];
            if cur < offsets[d + 1] {
                slab[cur as usize].write(ManuallyDrop::into_inner(m));
                cursors[d] = cur + 1;
                written += 1;
            } else {
                over.get_or_insert(dst as usize);
            }
        });
    }
    let mismatch = |vp, reason| Err(ModelError::PlanMismatch { step: step.name, vp, reason });
    if let Some(vp) = over {
        return mismatch(vp, "more payload messages to a destination than planned");
    }
    if written != total {
        let d = (0..me.vps).find(|&d| cursors[d] < offsets[d + 1]).unwrap_or(0);
        return mismatch(
            vp_lo + d,
            "destination received fewer payload messages than the route declares",
        );
    }
    write.commit_write(total);
    Ok(())
}

/// Drains the shard's staged sends of a dynamic superstep once — the
/// destination range check (and, under validation, the cluster check),
/// metering into the shard's builder, log fragment, and each payload into
/// this worker's out-lane for its destination shard — then hands the
/// out-lanes over through the slots of this barrier round's `parity`.
/// Every message is metered here, on its sender's shard, so dummies go in
/// no lane.
fn flush<S, M: Send>(
    me: &mut Worker<'_, S, M>,
    shared: &Shared<'_, S, M>,
    cell: &mut ShardCell,
    step: &Superstep<S, M>,
    parity: usize,
) -> Result<(), ModelError> {
    if let Some(e) = me.kit.stage.outbox.take_error(step.name) {
        return Err(e);
    }
    let v = shared.v;
    let log_v = shared.log_v;
    let shard_shift = log_v - shared.log_shards;
    let Some(metrics) = cell.metrics.as_mut() else {
        unreachable!("the census builds the dynamic tier for every step it does not plan")
    };
    metrics.clear();
    cell.log_frag.clear();
    let want_log = shared.collect_log;

    let outs = &mut me.kit.outs;
    let mut msg_idx = 0usize;
    let mut staged = me.kit.stage.outbox.msgs.drain(..);
    for (i, &end) in me.kit.stage.vp_ends.iter().enumerate() {
        let src = me.vp_lo + i;
        while msg_idx < end as usize {
            // allow-panic: `vp_ends` is built by `end_vp` from the same
            // staging buffer, so an exhausted iterator here is an engine
            // bug, unreachable from user input.
            let (dst, env) = staged.next().expect("vp_ends bound the staged messages");
            msg_idx += 1;
            let d = dst as usize;
            if let Some(fault) = message_fault(src, d, v, log_v, step.label, shared.validate) {
                return Err(fault);
            }
            metrics.record(src, d);
            if want_log {
                cell.log_frag.push((src as u32, dst));
            }
            let Envelope::Data(m) = env else {
                continue; // metered above, delivered nowhere
            };
            outs[d >> shard_shift].push(dst, ManuallyDrop::new(m));
        }
    }
    drop(staged);
    me.kit.stage.vp_ends.clear();
    hand_over(&mut me.kit.outs, &shared.core.handover[parity], me.w);
    Ok(())
}

/// Builds this shard's inboxes for the next superstep (dynamic path):
/// counts the destinations in the incoming hand-over slots of `parity`,
/// sizes write arena `widx` from the counts and drains the slots into it.
/// Per-destination counts are checked — an overflowing count is a
/// [`ModelError`], never a silent cap that would corrupt the counting-sort
/// offsets.
fn gather<S, M: Send>(
    me: &mut Worker<'_, S, M>,
    shared: &Shared<'_, S, M>,
    step: &Superstep<S, M>,
    t: usize,
    widx: usize,
    parity: usize,
) -> Result<(), ModelError> {
    // The peer span is derived from the cluster constraint, which only
    // validation enforces — unchecked runs must scan every potential peer.
    let srcs = if shared.validate {
        peer_span(me.w, step.label, shared.log_shards)
    } else {
        0..shared.n_shards
    };
    let slots = &shared.core.handover[parity];
    // `dst_counts` is all-zero here: `prepare_write` zeroes the counts as
    // it consumes them (no per-superstep `fill(0)` sweep).
    fault_edge(shared.faults, FAULT_BUMP_COUNT, me.w, t)?;
    for s in srcs.clone() {
        for &dst in &slots.lane(s, me.w).dsts {
            bump_count(&mut me.kit.dst_counts[dst as usize - me.vp_lo])?;
        }
    }
    fault_edge(shared.faults, FAULT_PREPARE_WRITE, me.w, t)?;
    let total = me.kit.arenas[widx].prepare_write(&mut me.kit.dst_counts, &mut me.kit.cursors);
    drain_handover(me, shared, step, srcs, parity, widx, total)
}

/// Coordinator: adds the shard builders of a dynamic superstep into shard
/// 0's, finishes the sum into the superstep record, and assembles the
/// message-log entry (fragments in shard order = ascending source order).
/// Planned supersteps never reach here — their records are pushed by
/// [`push_planned_record`] with no merge at all.
fn merge_superstep<S, M>(coord: &mut Coord<'_>, shared: &Shared<'_, S, M>, label: u32) {
    let mut first = lock(&shared.cells[0]);
    let first = &mut *first;
    let Some(sum) = first.metrics.as_mut() else {
        unreachable!("the census builds the dynamic tier for every step it does not plan")
    };
    let mut entry = shared.collect_log.then(|| first.log_frag.clone());
    for cell in &shared.cells[1..] {
        let cell = lock(cell);
        if let Some(metrics) = &cell.metrics {
            sum.add(metrics);
        }
        if let Some(e) = entry.as_mut() {
            e.extend_from_slice(&cell.log_frag);
        }
    }
    sum.finish_into(label, coord.trace);
    if let (Some(log), Some(entry)) = (coord.log.as_deref_mut(), entry) {
        log.push(entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Inbox;
    use crate::plan::{DeclaredRoute, Route, Xor};
    use std::sync::atomic::AtomicU8;

    #[test]
    fn peer_spans_follow_labels() {
        // (shard, label, log shards) → the shards it may talk to.
        for (w, label, log_shards, span) in [
            (2, 0, 2, 0..4), // label 0: all four shards talk
            (0, 1, 2, 0..2), // label 1: shard halves {0, 1} and {2, 3}
            (3, 1, 2, 2..4),
            (2, 3, 2, 2..3), // label ≥ log shards: shard-local
            (5, 1, 3, 4..8),
            (5, 2, 3, 4..6),
            (0, 0, 0, 0..1), // a single shard
        ] {
            assert_eq!(peer_span(w, label, log_shards), span, "w={w} label={label}");
        }
    }

    /// A fully planned butterfly: every superstep carries a fault-free
    /// communication plan.
    fn planned_butterfly(v: usize, rounds: usize) -> Program<u64, u64> {
        let mut prog: Program<u64, u64> = Program::new(v, v);
        let log_v = prog.log_v();
        for r in 0..rounds {
            let l = (r as u32) % log_v;
            let d = v >> (l + 1);
            let last = r == rounds - 1;
            prog.step_oblivious(
                l,
                "bfly",
                if last { 0 } else { 1 },
                Xor(d),
                move |st, _, inbox, out| {
                    for m in inbox.drain(..) {
                        *st = st.wrapping_add(m);
                    }
                    if !last {
                        out.send(*st);
                    }
                },
            );
        }
        prog
    }

    /// The same butterfly on the dynamic path (no plans declared).
    fn dynamic_butterfly(v: usize, rounds: usize) -> Program<u64, u64> {
        let mut prog: Program<u64, u64> = Program::new(v, v);
        let log_v = prog.log_v();
        for r in 0..rounds {
            let l = (r as u32) % log_v;
            let d = v >> (l + 1);
            let last = r == rounds - 1;
            prog.step(l, "bfly", move |st, ctx, inbox, out| {
                for m in inbox.drain(..) {
                    *st = st.wrapping_add(m);
                }
                if !last {
                    out.send(ctx.vp ^ d, *st);
                }
            });
        }
        prog
    }

    /// One run through the single entry on a fresh `n_shards`-wide
    /// executor, exposing rounds, trace *and* outcome (the failure tests
    /// pin the round the gang exited at).
    fn run_raw(
        prog: &Program<u64, u64>,
        states: &mut [u64],
        n_shards: usize,
        opts: &RunOptions,
    ) -> (u64, nob_core::metrics::CommTrace, Result<(), ModelError>) {
        let mut exec = Executor::new(n_shards);
        let outcome = exec.attempt(prog, states, opts, n_shards).map(|_| ());
        (exec.rounds, exec.trace.snapshot(), outcome)
    }

    fn run_counting(
        prog: &Program<u64, u64>,
        states: &mut [u64],
        n_shards: usize,
        opts: &RunOptions,
    ) -> (u64, nob_core::metrics::CommTrace) {
        let (rounds, trace, outcome) = run_raw(prog, states, n_shards, opts);
        outcome.unwrap();
        (rounds, trace)
    }

    #[test]
    fn planned_supersteps_cost_exactly_one_barrier() {
        // Three tiers on the same program: dynamic costs two barriers per
        // superstep, the fuse-off planned protocol exactly one per step,
        // and the fused tier removes the barrier entirely from every
        // superstep whose payload locality clears the shard depth. The
        // butterfly's labels cycle 0,1,2,3 with matching exchange
        // distances, so at 2 shards only the label-0 steps (r ∈ {0, 4})
        // stay cross-shard, one barrier each, and at 4 shards the label-1
        // steps join them (r ∈ {0, 1, 4, 5}).
        let (v, rounds) = (16usize, 9usize);
        let planned = planned_butterfly(v, rounds);
        let dynamic = dynamic_butterfly(v, rounds);
        let want: Vec<u64> = {
            let mut states: Vec<u64> = (0..v as u64).collect();
            let (b, _) = run_counting(&dynamic, &mut states, 4, &RunOptions::default());
            assert_eq!(b, 2 * rounds as u64, "dynamic protocol is two barriers per step");
            states
        };
        for (w, fused_barriers) in [(2usize, 2u64), (4, 4)] {
            let mut states: Vec<u64> = (0..v as u64).collect();
            let (b, trace) = run_counting(&planned, &mut states, w, &RunOptions::default());
            assert_eq!(
                b, fused_barriers,
                "fused tier must pay barriers only for cross-shard steps at {w} workers"
            );
            assert_eq!(states, want, "fused results diverge at {w} workers");
            assert_eq!(trace.superstep_count(), rounds);

            // Fusion off: the one-barrier protocol, exactly as before.
            let mut states: Vec<u64> = (0..v as u64).collect();
            let opts = RunOptions { fuse: false, ..Default::default() };
            let (b, trace) = run_counting(&planned, &mut states, w, &opts);
            assert_eq!(
                b, rounds as u64,
                "fuse-off planned protocol must cost one barrier per step at {w} workers"
            );
            assert_eq!(states, want, "fuse-off results diverge at {w} workers");
            assert_eq!(trace.superstep_count(), rounds);
        }
        // Plans disabled: the same program walks the dynamic protocol.
        let mut states: Vec<u64> = (0..v as u64).collect();
        let opts = RunOptions { use_plans: false, ..Default::default() };
        let (b, _) = run_counting(&planned, &mut states, 2, &opts);
        assert_eq!(b, 2 * rounds as u64);
        assert_eq!(states, want);
    }

    #[test]
    fn mixed_programs_pay_no_barrier_on_a_dynamic_to_planned_edge() {
        let v = 16usize;
        let mut prog: Program<u64, u64> = Program::new(v, v);
        let d = v / 2;
        let absorb = |st: &mut u64, inbox: &mut Inbox<'_, u64>| {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
        };
        fn forward<R: DeclaredRoute>(
            st: &mut u64,
            _: &Ctx,
            inbox: &mut Inbox<'_, u64>,
            out: &mut crate::program::Slots<'_, u64, R>,
        ) {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
            out.send(*st);
        }
        let route = Xor(d);
        // dynamic, planned, planned, dynamic-consume: 2 + 1 + 1 + 2 = 6
        // barriers — a planned step after a dynamic one needs no prepare
        // barrier, since no sender needs its receivers' layout.
        prog.step(0, "dyn", move |st, ctx, inbox, out| {
            absorb(st, inbox);
            out.send(ctx.vp ^ d, *st);
        });
        prog.step_oblivious(0, "pl1", 1, route, forward);
        prog.step_oblivious(0, "pl2", 1, route, forward);
        prog.step(0, "consume", move |st, _, inbox, _| absorb(st, inbox));
        let mut states: Vec<u64> = (0..v as u64).collect();
        let (b, _) = run_counting(&prog, &mut states, 2, &RunOptions::default());
        assert_eq!(b, 6, "a cross-shard planned step costs exactly its one barrier");
    }

    /// Payload ids of [`cross_shard_payloads_change_hands_at_the_barrier`]:
    /// `(step · v + vp) · 2 + k` for the `k`-th send of `vp` in step `step`.
    const HANDOVER_V: usize = 1 << 6;
    const HANDOVER_STEPS: usize = 11;
    static HANDOVER_MADE: [AtomicU8; HANDOVER_STEPS * HANDOVER_V * 2] =
        [const { AtomicU8::new(0) }; HANDOVER_STEPS * HANDOVER_V * 2];
    static HANDOVER_DROPS: [AtomicU8; HANDOVER_STEPS * HANDOVER_V * 2] =
        [const { AtomicU8::new(0) }; HANDOVER_STEPS * HANDOVER_V * 2];

    /// A payload that records its creation and its drop, once per id.
    struct Counted {
        id: usize,
        val: u64,
    }

    impl Counted {
        fn new(id: usize, val: u64) -> Self {
            HANDOVER_MADE[id].fetch_add(1, Ordering::SeqCst);
            Counted { id, val }
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            HANDOVER_DROPS[self.id].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Eleven steps on `M(2^6)`: seven with labels cycling 0, 1, 2 whose
    /// payloads cross the label's half-clusters — each VP sends one payload
    /// to its partner there, a dummy, then one payload to itself (an
    /// out-lane to the sender's own shard) — with shard-local steps (labels
    /// 4 and 5, partner `vp ^ 2` or `vp ^ 1`) between some of them, and a
    /// final payload-free consume. Every state folds its inbox in order, so
    /// any delivery-order slip shows in the states. Declared steps, or with
    /// `dynamic` their twins: the same sends through [`Program::step`].
    fn handover_program(dynamic: bool) -> (Program<u64, Counted>, Vec<(u32, bool)>) {
        let v = HANDOVER_V;
        // (label, crosses the label's half-clusters)
        let schedule = [
            (0, true),
            (1, true),
            (5, false),
            (2, true),
            (0, true),
            (4, false),
            (5, false),
            (1, true),
            (2, true),
            (0, true),
        ];
        let fold = |st: &mut u64, inbox: &mut Inbox<'_, Counted>| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m.val);
            }
        };
        let mut prog: Program<u64, Counted> = Program::new(v, v);
        for (t, &(label, cross)) in schedule.iter().enumerate() {
            let partner = if cross { v >> (label + 1) } else { 1 << (5 - label) };
            let payload = move |vp: usize, k: usize, st: u64| {
                Counted::new((t * v + vp) * 2 + k, st.wrapping_add(k as u64))
            };
            if dynamic {
                prog.step(label, "handover", move |st, ctx, inbox, out| {
                    fold(st, inbox);
                    out.send(ctx.vp ^ partner, payload(ctx.vp, 0, *st));
                    out.send_dummy(ctx.vp ^ 1);
                    out.send(ctx.vp, payload(ctx.vp, 1, *st));
                });
                continue;
            }
            let route = move |ctx: &Ctx, k: usize| match k {
                0 => Route::Data(ctx.vp ^ partner),
                1 => Route::Dummy(ctx.vp ^ 1),
                _ => Route::Data(ctx.vp),
            };
            prog.step_oblivious(label, "handover", 3, route, move |st, ctx, inbox, out| {
                fold(st, inbox);
                for k in 0..2 {
                    out.send(payload(ctx.vp, k, *st));
                }
            });
        }
        if dynamic {
            prog.step(3, "consume", move |st, _, inbox, _| fold(st, inbox));
        } else {
            let end = |_: &Ctx, _| Route::End;
            prog.step_oblivious(3, "consume", 0, end, move |st, _, inbox, _| fold(st, inbox));
        }
        let labels = prog.steps().iter().map(|s| s.label).collect::<Vec<_>>();
        let crossing = schedule.iter().map(|&(_, c)| c).chain([false]);
        (prog, labels.into_iter().zip(crossing).collect())
    }

    fn reset_handover_counts() {
        for id in 0..HANDOVER_MADE.len() {
            HANDOVER_MADE[id].store(0, Ordering::SeqCst);
            HANDOVER_DROPS[id].store(0, Ordering::SeqCst);
        }
    }

    /// Checks that every payload made since the last reset was dropped
    /// exactly as often as it was made, at most `runs` times; returns how
    /// many were made.
    fn assert_dropped_as_made(runs: u8, what: &str) -> usize {
        for id in 0..HANDOVER_MADE.len() {
            let made = HANDOVER_MADE[id].load(Ordering::SeqCst);
            let dropped = HANDOVER_DROPS[id].load(Ordering::SeqCst);
            assert!(
                made <= runs && dropped == made,
                "{what}: payload {id} made {made}, dropped {dropped}"
            );
        }
        HANDOVER_MADE.iter().map(|m| m.load(Ordering::SeqCst) as usize).sum()
    }

    #[test]
    fn cross_shard_payloads_change_hands_at_the_barrier() {
        let v = HANDOVER_V;
        let init: Vec<u64> = (0..v as u64).map(|x| x * 7 + 3).collect();
        for dynamic in [false, true] {
            let (prog, steps) = handover_program(dynamic);
            assert_eq!(steps.len(), HANDOVER_STEPS);
            let want =
                crate::reference::run_reference(&prog, init.clone(), &RunOptions::with_log())
                    .expect("reference run");
            for w in [2usize, 4, 8] {
                let log_shards = w.trailing_zeros();
                for fuse in [true, false] {
                    let what = format!("dynamic = {dynamic}, w = {w}, fuse = {fuse}");
                    reset_handover_counts();
                    let opts = RunOptions { fuse, ..RunOptions::with_log() };
                    let mut states = init.clone();
                    let mut exec = Executor::new(w);
                    let log = exec.attempt(&prog, &mut states, &opts, w).expect(&what);
                    assert_eq!(states, want.states, "{what}: states");
                    assert_eq!(exec.trace.snapshot(), want.trace, "{what}: trace");
                    assert_eq!(log, want.message_log, "{what}: message log");
                    // Two barriers per dynamic step. One per planned step
                    // that is not fused: every step if fusion is off, else
                    // each step whose payloads cross the shards (label
                    // below the shard depth).
                    let barriers = if dynamic {
                        2 * steps.len()
                    } else {
                        steps
                            .iter()
                            .filter(|&&(label, cross)| !fuse || (cross && label < log_shards))
                            .count()
                    };
                    assert_eq!(exec.rounds, barriers as u64, "{what}: barrier rounds");
                    drop(exec);
                    let made = assert_dropped_as_made(1, &what);
                    assert_eq!(made, (HANDOVER_STEPS - 1) * v * 2, "{what}: payloads sent");
                }
                if !dynamic {
                    continue;
                }
                // A failed run leaves a step's payloads in the last shard's
                // incoming slots; the next run on the same executor drops
                // them, once.
                let what = format!("dynamic, w = {w}, failed then clean");
                reset_handover_counts();
                let mut exec = Executor::new(w);
                let faults = Some(Arc::new(FaultPlan::error_at(FAULT_GATHER, w - 1, 4)));
                let opts = RunOptions { faults, ..RunOptions::with_log() };
                let outcome = exec.attempt(&prog, &mut init.clone(), &opts, w);
                assert!(
                    matches!(outcome, Err(ModelError::FaultInjected { site: FAULT_GATHER, .. })),
                    "{what}: {outcome:?}"
                );
                let sum = |c: &[AtomicU8]| -> usize {
                    c.iter().map(|n| n.load(Ordering::SeqCst) as usize).sum()
                };
                assert!(
                    sum(&HANDOVER_MADE) > sum(&HANDOVER_DROPS),
                    "{what}: the failed run left nothing undelivered"
                );
                let mut states = init.clone();
                let log = exec.attempt(&prog, &mut states, &RunOptions::with_log(), w);
                assert_eq!(log.expect(&what), want.message_log, "{what}: message log");
                assert_eq!(states, want.states, "{what}: states");
                assert_dropped_as_made(2, &what);
            }
        }
    }

    #[test]
    fn vp_panics_exit_the_gang_in_lockstep_at_every_width() {
        let v = 8usize;
        let explode = |ctx: &Ctx| {
            if ctx.vp == 5 {
                panic!("vp exploded");
            }
        };
        let want = ModelError::VpPanic { step: "boom", vp: 5, payload: "vp exploded".into() };

        // Dynamic protocol: the panic settles before the flush barrier, so
        // the whole gang exits at round 1 — no matter the width.
        let mut dynamic: Program<u64, u64> = Program::new(v, v);
        dynamic.step(0, "boom", move |_, ctx, _, _| explode(ctx));
        for w in [2usize, 4, 8] {
            let mut states = vec![0u64; v];
            let (rounds, _, outcome) = run_raw(&dynamic, &mut states, w, &RunOptions::default());
            assert_eq!(outcome.unwrap_err(), want, "dynamic error diverges at {w} workers");
            assert_eq!(rounds, 1, "dynamic gang must exit at the flush barrier at {w} workers");
        }

        // A payload-free plan is shard-local at every width, so under
        // fusion the single superstep runs with zero barriers: the panic
        // settles inside the fused iteration, there is no later non-fused
        // step for healthy peers to wait at, and every worker leaves
        // without ever touching the barrier.
        let mut planned: Program<u64, u64> = Program::new(v, v);
        planned.step_oblivious(
            0,
            "boom",
            0,
            |_: &Ctx, _| Route::End,
            move |_, ctx, _, _| explode(ctx),
        );
        for w in [2usize, 4, 8] {
            let mut states = vec![0u64; v];
            let (rounds, _, outcome) = run_raw(&planned, &mut states, w, &RunOptions::default());
            assert_eq!(outcome.unwrap_err(), want, "fused error diverges at {w} workers");
            assert_eq!(rounds, 0, "fused gang must exit without any barrier at {w} workers");
        }

        // Fusion off (the one-barrier protocol): the panicking exec settles
        // before round 1 — the exit.
        for w in [2usize, 4, 8] {
            let mut states = vec![0u64; v];
            let opts = RunOptions { fuse: false, ..Default::default() };
            let (rounds, _, outcome) = run_raw(&planned, &mut states, w, &opts);
            assert_eq!(outcome.unwrap_err(), want, "planned error diverges at {w} workers");
            assert_eq!(rounds, 1, "planned gang must exit at the exec barrier at {w} workers");
        }
    }

    #[test]
    fn a_failed_commit_followed_only_by_fused_steps_exits_without_waiting() {
        // At 2 shards only the butterfly's first step crosses them; the
        // three after it are fused, so healthy peers meet no barrier again.
        // A worker whose commit fails must not wait for one: with no
        // watchdog armed it would wait forever.
        let v = 16usize;
        let prog = planned_butterfly(v, 4);
        let faults = Some(Arc::new(FaultPlan::error_at(FAULT_COMMIT, 1, 0)));
        let opts = RunOptions { faults, ..Default::default() };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut states: Vec<u64> = (0..v as u64).collect();
            let _ = tx.send(run_raw(&prog, &mut states, 2, &opts));
        });
        let (rounds, _, outcome) =
            rx.recv_timeout(Duration::from_secs(60)).expect("the gang must exit without a peer");
        assert!(
            matches!(outcome, Err(ModelError::FaultInjected { site: FAULT_COMMIT, .. })),
            "{outcome:?}"
        );
        assert_eq!(rounds, 1, "the gang exits after the cross-shard step's one barrier");
    }

    #[test]
    fn gang_scope_waits_out_every_worker_even_when_the_caller_unwinds() {
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        for n in [2usize, 4] {
            let mut gang = Gang::new(n);
            // Borrowed by the scope's closure and dropped right after it: the
            // scope must not return — by unwinding either — while a worker
            // can still touch them.
            let finished = AtomicUsize::new(0);
            let caller_unwinding = AtomicBool::new(false);
            let scope = catch_unwind(AssertUnwindSafe(|| {
                gang.scope(&|w| {
                    if w == 0 {
                        caller_unwinding.store(true, Ordering::SeqCst);
                        panic!("worker 0 exploded");
                    }
                    // Every other worker is still mid-closure when worker 0
                    // starts to unwind.
                    while !caller_unwinding.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    for _ in 0..64 {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(scope.is_err(), "the caller's panic must propagate");
            assert_eq!(finished.load(Ordering::SeqCst), n - 1, "scope returned before its workers");
            // The gang is intact: the next scope runs on all n workers.
            let ran = AtomicUsize::new(0);
            gang.scope(&|_| {
                ran.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(ran.load(Ordering::SeqCst), n);
        }
    }

    #[test]
    fn gang_barrier_watchdog_poisons_instead_of_deadlocking() {
        use std::time::Duration;
        let b = std::sync::Arc::new(GangBarrier::new(3, Some(Duration::from_millis(20))));
        // Two of three waiters arrive; the watchdog fires and both get the
        // missing count. The absent waiter finds the barrier poisoned.
        let (r1, r2) = std::thread::scope(|s| {
            let b1 = std::sync::Arc::clone(&b);
            let h1 = s.spawn(move || b1.wait());
            let b2 = std::sync::Arc::clone(&b);
            let h2 = s.spawn(move || b2.wait());
            (h1.join().unwrap(), h2.join().unwrap())
        });
        assert_eq!(r1, Err(1));
        assert_eq!(r2, Err(1));
        assert_eq!(b.wait(), Err(1), "a poisoned barrier must stay poisoned");

        // Without a timeout (and with one, when everyone shows up) the
        // barrier behaves like `std::sync::Barrier`.
        let b = GangBarrier::new(2, Some(Duration::from_millis(500)));
        std::thread::scope(|s| {
            let h = s.spawn(|| b.wait());
            assert_eq!(b.wait(), Ok(()));
            assert_eq!(h.join().unwrap(), Ok(()));
        });
    }

    #[test]
    fn stalled_worker_surfaces_as_gang_stall_not_deadlock() {
        use std::time::Duration;
        let v = 8usize;
        // VP 5 (shard 1 of 2) outsleeps the watchdog by a wide margin; the
        // healthy worker's wait times out and the run reports the
        // structured stall instead of hanging.
        let mut prog: Program<u64, u64> = Program::new(v, v);
        prog.step(0, "naps", |_, ctx, _, _| {
            if ctx.vp == 5 {
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        let opts =
            RunOptions { stall_timeout: Some(Duration::from_millis(50)), ..Default::default() };
        let mut states = vec![0u64; v];
        let (_, _, outcome) = run_raw(&prog, &mut states, 2, &opts);
        assert_eq!(
            outcome.unwrap_err(),
            ModelError::GangStall { round: 1, missing: 1, stalled: vec![] },
            "a lost worker must become a structured error"
        );
    }
}
