//! Multi-tenant job server: many program runs multiplexed over one
//! long-lived executor.
//!
//! `crate::engine::run` builds an executor per call and tears it down
//! afterwards: the gang is spawned and joined per run, and every
//! arena/table/trace buffer is allocated from scratch. That is the right
//! shape for a batch experiment and the wrong one for serving — the paper's
//! one-specification-everywhere argument has a serving corollary: one
//! *compiled* specification should run many times at near-zero marginal
//! setup cost. A [`JobServer`] is a scheduler thread that keeps **one**
//! `crate::shard::Executor` for its lifetime and puts three things in front
//! of it:
//!
//! * **Admission** — the FIFO + size-aware queue below.
//! * **A compiled-plan cache** keyed by `(program shape fingerprint, v,
//!   width)`: repeat requests reuse the built [`Program`] — its `StepPlan`s,
//!   `PlanLayout`s and memoised declared send totals included — so a warm
//!   job skips program construction, plan compilation *and* route
//!   enumeration. The key names no data: a program whose plans were
//!   captured from initial states ([`Program::capture_plans`]) is submitted
//!   as [`ProgramSource::Prebuilt`], so the program a job runs is always
//!   the one its submitter captured.
//! * **Ticket and telemetry bookkeeping** — per-job results, lifecycle
//!   timing and counters.
//!
//! Everything else is the executor's, exactly as under `run`: the scheduler
//! thread is worker 0 of every job, the gang's other threads are spawned
//! once and parked between jobs, a job's states are executed in place (each
//! worker gets its `split_at_mut` shard — no per-job copies), and worker
//! kits, grids, shard cells, merge scratch and the trace builder are
//! recycled, so warm steady state allocates nothing *across* jobs (the
//! cross-job case in `tests/allocation.rs`). Jobs with `v` below the gang
//! width run at width 1 on the scheduler thread.
//!
//! # Trust model of the cache key
//!
//! Program routes are closures, so the server cannot fingerprint a program
//! structurally; the submitter names its shape with a [`ShapeKey`] instead,
//! and the cache trusts that name the same way the engine trusts a declared
//! oblivious route. A key that misdescribes its program degrades exactly
//! like a mis-declared route: the planned path's bounds and written-total
//! checks surface a [`ModelError::PlanMismatch`] — never corruption and
//! never an out-of-bounds write. For [`ProgramSource::Prebuilt`] jobs the
//! submitted program is authoritative (the executor derives the lane spans
//! and send totals from the program it runs), so even a lying key cannot
//! misroute the dynamic path. That is how a captured program is served:
//! the job runs the capture its submitter made. A capture that does not
//! fit the data it runs on — stale, or reached through a [`ProgramSource::Build`]
//! key that names it — fails that job with the replay's per-send
//! `PlanMismatch`.
//!
//! A [`ProgramSource::Build`] closure runs on the scheduler thread; one
//! that panics fails only its own job, with the panic message kept in a
//! [`ModelError::VpPanic`] whose step is `"program builder"`.
//!
//! # Failure isolation
//!
//! A `VpPanic`, fault injection, or `GangStall` in one job fails **that
//! job's ticket** and leaves the gang serviceable: the executor re-arms the
//! barrier with a fresh generation, drains worker-kit residue and clears
//! the lanes before every run. The one documented limit carries over from
//! the engine: a VP closure that *never returns* wedges its worker thread
//! forever, which no in-process watchdog can recover — `stall_timeout`
//! converts every slow-or-lost-peer case into a structured per-job
//! [`ModelError::GangStall`].
//!
//! # Admission
//!
//! The queue is FIFO with one size-aware exception: when the head job is
//! large (`v > SMALL_CUTOFF` = 2^12), the earliest *small* job overtakes
//! it, so interactive traffic is not starved behind a `v = 2^16` sort. Each
//! overtake increments the head's counter; a head overtaken
//! `MAX_OVERTAKES` = 64 times becomes non-overtakable, bounding large-job
//! starvation.

use crate::engine::{vp_panic_error, GranSpec, RunOptions, MAX_WORKERS};
use crate::program::Program;
use crate::shard::{lock, Executor};
use nob_core::fault::FaultPlan;
use nob_core::metrics::CommTrace;
use nob_core::telemetry::{Counter, TelemetrySink};
use nob_core::ModelError;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The submitter-declared identity of a program's *shape*: everything that
/// determines its superstep sequence, labels and routes (but not its data).
/// Two submissions with equal keys and equal `v` promise to build
/// observably identical programs; see the module docs' trust model for what
/// happens when that promise is broken (structured degradation, never
/// corruption).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// The algorithm family, e.g. `"fft"` — use the program's
    /// [`crate::traits::NobAlgorithm::name`] when one exists.
    pub algo: &'static str,
    /// Distinguishes variants within a family (rounds, tuning, phase
    /// count…). Fold whatever parameters shape the program into this.
    pub variant: u64,
}

impl ShapeKey {
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.algo.hash(&mut h);
        self.variant.hash(&mut h);
        h.finish()
    }
}

/// Where a job's program comes from.
pub enum ProgramSource<S, M> {
    /// An already-built program, shared by the submitter. The cache only
    /// accounts it (hit or miss, byte budget): the submitted program itself
    /// is always the one executed, and its memoised send totals travel with
    /// it.
    Prebuilt(Arc<Program<S, M>>),
    /// Built on first use and cached under the job's [`ShapeKey`]; repeat
    /// submissions reuse the cached program, compiled plans included. A
    /// builder that panics fails its job with a [`ModelError::VpPanic`]
    /// carrying the panic message.
    Build(Box<dyn FnOnce() -> Program<S, M> + Send>),
}

/// Per-job execution options — the serving subset of [`RunOptions`]
/// (worker count is the server's, parallelism is the gang).
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// Check the run against the model ([`RunOptions::validate`]).
    pub validate: bool,
    /// Execute declared/captured communication plans.
    pub use_plans: bool,
    /// Allow the zero-barrier fused tier for shard-local planned steps.
    pub fuse: bool,
    /// Keep the raw per-superstep message log.
    pub collect_messages: bool,
    /// Materialize the job's [`CommTrace`] (skip for latency-critical jobs:
    /// the pooled trace builder still records, but no per-step vectors are
    /// allocated for the result).
    pub want_trace: bool,
    /// Deterministic fault-injection plan for this job only.
    pub faults: Option<Arc<FaultPlan>>,
    /// Per-job barrier watchdog: a stall fails this job with
    /// [`ModelError::GangStall`] and the gang is reset for the next one.
    pub stall_timeout: Option<Duration>,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            validate: true,
            use_plans: true,
            fuse: true,
            collect_messages: false,
            want_trace: true,
            faults: None,
            stall_timeout: None,
        }
    }
}

/// A job submission: its declared shape plus execution options.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The program's shape identity (the cache key's first component).
    pub shape: ShapeKey,
    /// Execution options.
    pub opts: JobOptions,
}

impl JobSpec {
    /// A spec with default options.
    pub fn new(shape: ShapeKey) -> Self {
        JobSpec { shape, opts: JobOptions::default() }
    }
}

/// Outcome of a completed job.
#[derive(Debug)]
pub struct JobResult<S> {
    /// Final per-VP states.
    pub states: Vec<S>,
    /// The communication trace, when [`JobOptions::want_trace`] was set.
    pub trace: Option<CommTrace>,
    /// Raw message log, when requested.
    pub message_log: Option<Vec<Vec<(u32, u32)>>>,
    /// Barrier rounds the gang walked for this job (0 on the serial path).
    pub rounds: u64,
    /// Time this job spent queued before the scheduler popped it. `None`
    /// when the server runs without telemetry ([`ServerConfig::telemetry`])
    /// — lifecycle timing obeys the same zero-cost arming rule as spans.
    pub queue_wait: Option<Duration>,
    /// Time from scheduler pop to fulfillment (resolve + run + gather).
    /// `None` when telemetry is disarmed.
    pub service: Option<Duration>,
}

struct TicketCell<S> {
    slot: Mutex<Option<Result<JobResult<S>, ModelError>>>,
    cv: Condvar,
}

/// A handle to a submitted job; redeem it with [`JobTicket::wait`].
pub struct JobTicket<S> {
    cell: Arc<TicketCell<S>>,
}

impl<S> JobTicket<S> {
    /// Blocks until the job completes and returns its outcome.
    pub fn wait(self) -> Result<JobResult<S>, ModelError> {
        let mut g = lock(&self.cell.slot);
        loop {
            if let Some(out) = g.take() {
                return out;
            }
            g = self.cell.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn fulfill<S>(cell: &TicketCell<S>, out: Result<JobResult<S>, ModelError>) {
    *lock(&cell.slot) = Some(out);
    cell.cv.notify_all();
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Gang width: a power of two in `1..=256`. Jobs with `v <` this run on
    /// the serial path of the scheduler thread instead.
    pub n_shards: usize,
    /// Plan-cache budget: total compiled bytes ([`Program::plan_bytes`])
    /// the cache may hold. When an insertion pushes the total past the
    /// budget, least-recently-used entries are evicted until it fits (the
    /// newest entry is always kept, even alone over budget, so an oversized
    /// program still caches rather than thrashing).
    pub plan_cache_bytes: u64,
    /// Server-lifetime telemetry sink: lifecycle counters (queue wait,
    /// service, dispatch, epoch resets, cache and pool behavior) plus every
    /// executor phase span of the jobs it runs. Size it with
    /// [`TelemetrySink::for_workers`]`(n_shards)`. `None` (the default)
    /// records nothing and pays one `Option` test per site.
    pub telemetry: Option<Arc<TelemetrySink>>,
}

impl ServerConfig {
    /// A server of `n_shards` persistent workers with a 64 MiB plan cache
    /// and no telemetry.
    pub fn with_shards(n_shards: usize) -> Self {
        ServerConfig { n_shards, plan_cache_bytes: 64 << 20, telemetry: None }
    }
}

/// A point-in-time snapshot of server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that failed with a [`ModelError`].
    pub failed: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (cold builds).
    pub cache_misses: u64,
    /// Jobs routed to the scheduler's serial path (`v <` gang width).
    pub serial_jobs: u64,
}

#[derive(Default)]
struct StatsInner {
    completed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    serial_jobs: AtomicU64,
}

impl StatsInner {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            serial_jobs: self.serial_jobs.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Admission queue
// ---------------------------------------------------------------------------

struct JobRequest<S, M> {
    states: Vec<S>,
    spec: JobSpec,
    /// `Some` until [`resolve_program`] consumes it (an `Option` so the
    /// resolver can take the builder out by value).
    source: Option<ProgramSource<S, M>>,
    ticket: Arc<TicketCell<S>>,
    /// Submission timestamp, stamped only when the server's telemetry is
    /// armed (queue-wait attribution; disarmed submissions never read the
    /// clock).
    enqueued: Option<Instant>,
}

struct Pending<S, M> {
    job: JobRequest<S, M>,
    overtaken: u32,
}

/// Jobs with `v <= SMALL_CUTOFF` count as small/interactive for admission:
/// they may overtake a queued large job.
const SMALL_CUTOFF: u64 = 1 << 12;

/// A queued large job overtaken this many times becomes non-overtakable
/// (the anti-starvation bound).
const MAX_OVERTAKES: u32 = 64;

/// The FIFO + size-aware admission queue (see the module docs). Factored
/// out of the locking so the policy is directly unit-testable.
pub(crate) struct Admission<S, M> {
    pending: Vec<Pending<S, M>>,
    small_cutoff: u64,
    max_overtakes: u32,
    /// Lifetime total of overtakes performed (telemetry reads this under
    /// the queue lock and mirrors it into [`Counter::Overtakes`]).
    overtakes: u64,
}

impl<S, M> Admission<S, M> {
    /// A queue whose small jobs are those with `v <= small_cutoff`, and whose
    /// large head may be overtaken `max_overtakes` times (the server uses
    /// [`SMALL_CUTOFF`] and [`MAX_OVERTAKES`]).
    fn new(small_cutoff: u64, max_overtakes: u32) -> Self {
        Admission { pending: Vec::new(), small_cutoff, max_overtakes, overtakes: 0 }
    }

    fn push(&mut self, job: JobRequest<S, M>) {
        self.pending.push(Pending { job, overtaken: 0 });
    }

    fn weight(p: &Pending<S, M>) -> u64 {
        p.job.states.len() as u64
    }

    /// Pops the next job per policy: FIFO, except that the earliest small
    /// job overtakes a large, not-yet-exhausted head.
    fn pop(&mut self) -> Option<JobRequest<S, M>> {
        if self.pending.is_empty() {
            return None;
        }
        let head_small = Self::weight(&self.pending[0]) <= self.small_cutoff;
        if !head_small && self.pending[0].overtaken < self.max_overtakes {
            if let Some(i) =
                self.pending.iter().position(|p| Self::weight(p) <= self.small_cutoff)
            {
                self.pending[0].overtaken += 1;
                self.overtakes += 1;
                return Some(self.pending.remove(i).job);
            }
        }
        Some(self.pending.remove(0).job)
    }

    fn drain(&mut self) -> impl Iterator<Item = JobRequest<S, M>> + '_ {
        self.pending.drain(..).map(|p| p.job)
    }
}

struct QueueState<S, M> {
    q: Admission<S, M>,
    shutdown: bool,
}

struct ServerInner<S, M> {
    queue: Mutex<QueueState<S, M>>,
    cv: Condvar,
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    shape: u64,
    v: usize,
    n_shards: usize,
}

struct CacheEntry<S, M> {
    prog: Arc<Program<S, M>>,
    /// Compiled-plan footprint of `prog` ([`Program::plan_bytes`]) — the
    /// unit the LRU budget is accounted in.
    bytes: u64,
    /// Recency stamp from the cache's tick counter (LRU victim = minimum).
    last_used: u64,
}

struct PlanCache<S, M> {
    entries: HashMap<CacheKey, CacheEntry<S, M>>,
    /// Total compiled bytes the cache may hold ([`ServerConfig::plan_cache_bytes`]).
    budget_bytes: u64,
    /// Sum of every resident entry's `bytes`.
    total_bytes: u64,
    /// Monotone access clock for `last_used` stamps.
    tick: u64,
}

impl<S, M> PlanCache<S, M> {
    /// Bumps an entry's recency stamp (a hit).
    fn touch(&mut self, key: &CacheKey) {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(key) {
            e.last_used = self.tick;
        }
    }

    /// Inserts a freshly resolved program and enforces the byte budget:
    /// least-recently-used entries are evicted (O(n) min-scan — the cache
    /// is small by construction once bounded) until the total fits. The
    /// entry just inserted is never the victim: it carries the maximal
    /// stamp and the scan stops with one survivor, so a single oversized
    /// program still caches instead of thrashing every submission.
    fn insert(&mut self, key: CacheKey, prog: Arc<Program<S, M>>, tele: Option<&TelemetrySink>) {
        let bytes = prog.plan_bytes();
        self.tick += 1;
        let entry = CacheEntry { prog, bytes, last_used: self.tick };
        if let Some(old) = self.entries.insert(key, entry) {
            self.total_bytes -= old.bytes;
        }
        self.total_bytes += bytes;
        while self.total_bytes > self.budget_bytes && self.entries.len() > 1 {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(k) = victim else { break };
            if let Some(e) = self.entries.remove(&k) {
                self.total_bytes -= e.bytes;
            }
            if let Some(tl) = tele {
                tl.add(Counter::CacheEvictions, 1);
            }
        }
        if let Some(tl) = tele {
            tl.set(Counter::CacheBytes, self.total_bytes);
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// A multi-tenant job server over one persistent sharded worker gang (see
/// the module docs). Dropping the server fails any still-queued jobs and
/// joins the gang.
pub struct JobServer<S: Send + 'static, M: Send + 'static> {
    inner: Arc<ServerInner<S, M>>,
    stats: Arc<StatsInner>,
    scheduler: Option<std::thread::JoinHandle<()>>,
    /// Kept so `enqueue` knows whether to stamp submission times (and so a
    /// caller-held sink is the only other owner).
    telemetry: Option<Arc<TelemetrySink>>,
}

fn closed_error() -> ModelError {
    ModelError::BadParameter { what: "job server", reason: "server shut down before the job ran" }
}

impl<S, M> JobServer<S, M>
where
    S: Send + Clone + 'static,
    M: Send + 'static,
{
    /// Creates a server and spawns its gang (`config.n_shards` workers, one
    /// of them the scheduler thread itself).
    pub fn new(config: ServerConfig) -> Result<Self, ModelError> {
        if !config.n_shards.is_power_of_two() || config.n_shards > MAX_WORKERS {
            return Err(ModelError::BadParameter {
                what: "n_shards",
                reason: "gang width must be a power of two no larger than the worker ceiling",
            });
        }
        let inner = Arc::new(ServerInner {
            queue: Mutex::new(QueueState {
                q: Admission::new(SMALL_CUTOFF, MAX_OVERTAKES),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let stats = Arc::new(StatsInner::default());
        let telemetry = config.telemetry.clone();
        let scheduler = {
            let inner = Arc::clone(&inner);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("nob-server-sched".into())
                .spawn(move || scheduler_main(inner, stats, config))
                .map_err(|_| ModelError::BadParameter {
                    what: "job server",
                    reason: "could not spawn the scheduler thread",
                })?
        };
        Ok(JobServer { inner, stats, scheduler: Some(scheduler), telemetry })
    }

    /// Submits a job; the returned ticket resolves when it has run.
    ///
    /// The machine size is the states' length, so it must be a power of
    /// two ([`ModelError::NotPowerOfTwo`]) and at least 2, the smallest
    /// machine a [`Program`] describes ([`ModelError::BadParameter`]).
    pub fn submit(
        &self,
        spec: JobSpec,
        states: Vec<S>,
        source: ProgramSource<S, M>,
    ) -> Result<JobTicket<S>, ModelError> {
        let v = states.len();
        if !v.is_power_of_two() {
            return Err(ModelError::NotPowerOfTwo { what: "v", value: v });
        }
        if v < 2 {
            return Err(ModelError::BadParameter {
                what: "v",
                reason: "a job's machine needs at least 2 VPs",
            });
        }
        let cell = Arc::new(TicketCell { slot: Mutex::new(None), cv: Condvar::new() });
        let job = JobRequest {
            states,
            spec,
            source: Some(source),
            ticket: Arc::clone(&cell),
            enqueued: self.telemetry.is_some().then(Instant::now),
        };
        {
            let mut g = lock(&self.inner.queue);
            if g.shutdown {
                return Err(closed_error());
            }
            g.q.push(job);
        }
        self.inner.cv.notify_all();
        Ok(JobTicket { cell })
    }

    /// Submit-and-wait convenience for sequential callers.
    pub fn run_job(
        &self,
        spec: JobSpec,
        states: Vec<S>,
        source: ProgramSource<S, M>,
    ) -> Result<JobResult<S>, ModelError> {
        self.submit(spec, states, source)?.wait()
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }
}

impl<S: Send + 'static, M: Send + 'static> Drop for JobServer<S, M> {
    fn drop(&mut self) {
        lock(&self.inner.queue).shutdown = true;
        self.inner.cv.notify_all();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

fn scheduler_main<S, M>(inner: Arc<ServerInner<S, M>>, stats: Arc<StatsInner>, cfg: ServerConfig)
where
    S: Send + Clone + 'static,
    M: Send + 'static,
{
    // The executor (gang threads, pooled run state) and the plan cache are
    // scheduler-local, hence lock-free.
    let mut exec: Executor<M> = Executor::new(cfg.n_shards);
    let mut cache = PlanCache {
        entries: HashMap::new(),
        budget_bytes: cfg.plan_cache_bytes,
        total_bytes: 0,
        tick: 0,
    };
    loop {
        let job = {
            let mut g = lock(&inner.queue);
            loop {
                // Shutdown outranks queued work: dropping the server fails
                // still-queued jobs instead of running the backlog out.
                if g.shutdown {
                    break None;
                }
                if let Some(job) = g.q.pop() {
                    if let Some(tl) = cfg.telemetry.as_deref() {
                        // Mirror the queue's lifetime overtake total while
                        // the lock still serializes it (idempotent store).
                        tl.set(Counter::Overtakes, g.q.overtakes);
                    }
                    break Some(job);
                }
                g = inner.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { break };
        process_job(&mut exec, &mut cache, &cfg, job, &stats);
    }
    // Shutdown: fail whatever is still queued; dropping the executor joins
    // the gang.
    let mut g = lock(&inner.queue);
    for job in g.q.drain() {
        fulfill(&job.ticket, Err(closed_error()));
    }
}

/// Resolves a job's program through the plan cache. Returns the program to
/// execute and whether this was a cache hit. (The cache only ever
/// short-circuits *cost* — program build, plan compilation, route
/// enumeration — never routing authority: the executor derives the lane
/// plan from the program it runs.)
#[allow(clippy::type_complexity)]
fn resolve_program<S: Send + Clone, M: Send>(
    cache: &mut PlanCache<S, M>,
    job: &mut JobRequest<S, M>,
    n_shards: usize,
    tele: Option<&TelemetrySink>,
) -> Result<(Arc<Program<S, M>>, bool), ModelError> {
    let key = CacheKey { shape: job.spec.shape.fingerprint(), v: job.states.len(), n_shards };
    // Take the source out; a cache hit never needs the builder.
    let Some(source) = job.source.take() else {
        // Unreachable: every job is resolved exactly once.
        return Err(ModelError::BadParameter {
            what: "job server",
            reason: "job source already consumed",
        });
    };
    match source {
        ProgramSource::Prebuilt(prog) => {
            prog.check_states_len(job.states.len())?;
            let hit = cache.entries.contains_key(&key);
            if hit {
                cache.touch(&key);
            } else {
                cache.insert(key, Arc::clone(&prog), tele);
            }
            Ok((prog, hit))
        }
        ProgramSource::Build(build) if cache.entries.contains_key(&key) => {
            drop(build);
            cache.touch(&key);
            // allow-panic: guarded by the contains_key arm condition above.
            let entry = cache.entries.get(&key).expect("checked above");
            Ok((Arc::clone(&entry.prog), true))
        }
        ProgramSource::Build(build) => {
            // The builder is the submitter's code on the scheduler thread:
            // a panic in it fails this job only, never the server.
            let prog = catch_unwind(AssertUnwindSafe(build))
                .map_err(|payload| vp_panic_error("program builder", 0, payload))?;
            prog.check_states_len(job.states.len())?;
            let prog = Arc::new(prog);
            cache.insert(key, Arc::clone(&prog), tele);
            Ok((prog, false))
        }
    }
}

fn process_job<S, M>(
    exec: &mut Executor<M>,
    cache: &mut PlanCache<S, M>,
    cfg: &ServerConfig,
    mut job: JobRequest<S, M>,
    stats: &StatsInner,
) where
    S: Send + Clone + 'static,
    M: Send + 'static,
{
    // Lifecycle timing: queue wait ended the moment this job was popped
    // (process_job is called right after), service runs until fulfillment.
    // Every clock read is gated on the armed sink.
    let tele = cfg.telemetry.as_deref();
    let queue_wait = match (tele, job.enqueued) {
        (Some(tl), Some(t0)) => {
            let d = t0.elapsed();
            tl.add(Counter::QueueWaitNanos, d.as_nanos() as u64);
            Some(d)
        }
        _ => None,
    };
    let svc0 = tele.map(|tl| {
        tl.add(Counter::Jobs, 1);
        Instant::now()
    });

    // Machines smaller than the gang run at width 1 on this thread, paying
    // per-job scratch allocations — such jobs are tiny by definition.
    let width = if job.states.len() < cfg.n_shards { 1 } else { cfg.n_shards };
    let (prog, hit) = match resolve_program(cache, &mut job, width, tele) {
        Ok(r) => r,
        Err(e) => {
            stats.failed.fetch_add(1, Ordering::Relaxed);
            fulfill(&job.ticket, Err(e));
            return;
        }
    };
    let (stat, counter) = if hit {
        (&stats.cache_hits, Counter::CacheHits)
    } else {
        (&stats.cache_misses, Counter::CacheMisses)
    };
    stat.fetch_add(1, Ordering::Relaxed);
    if let Some(tl) = tele {
        tl.add(counter, 1);
    }
    if width == 1 {
        stats.serial_jobs.fetch_add(1, Ordering::Relaxed);
        if let Some(tl) = tele {
            tl.add(Counter::SerialJobs, 1);
        }
    }

    let opts = &job.spec.opts;
    let run_opts = RunOptions {
        validate: opts.validate,
        collect_messages: opts.collect_messages,
        use_plans: opts.use_plans,
        fuse: opts.fuse,
        faults: opts.faults.clone(),
        stall_timeout: opts.stall_timeout,
        telemetry: cfg.telemetry.clone(),
        // The width is this server's, passed to the executor directly.
        ..RunOptions::default()
    };
    let spec = GranSpec { levels: prog.log_v(), gran_shift: 0, full: true };
    let executed = exec.attempt(&prog, &mut job.states, spec, &run_opts, width);
    let service = match (tele, svc0) {
        (Some(tl), Some(t0)) => {
            let d = t0.elapsed();
            tl.add(Counter::ServiceNanos, d.as_nanos() as u64);
            Some(d)
        }
        _ => None,
    };
    let outcome = executed.map(|message_log| JobResult {
        states: std::mem::take(&mut job.states),
        trace: opts.want_trace.then(|| exec.trace.snapshot()),
        message_log,
        rounds: exec.rounds,
        queue_wait,
        service,
    });
    let stat = if outcome.is_ok() { &stats.completed } else { &stats.failed };
    stat.fetch_add(1, Ordering::Relaxed);
    fulfill(&job.ticket, outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(v: usize) -> JobRequest<u64, u64> {
        JobRequest {
            states: vec![0; v],
            spec: JobSpec::new(ShapeKey { algo: "t", variant: 0 }),
            source: Some(ProgramSource::Prebuilt(Arc::new(Program::new(v, v)))),
            ticket: Arc::new(TicketCell { slot: Mutex::new(None), cv: Condvar::new() }),
            enqueued: None,
        }
    }

    #[test]
    fn admission_small_overtakes_large_head() {
        let mut q: Admission<u64, u64> = Admission::new(8, 2);
        q.push(req(64)); // large head
        q.push(req(4)); // small
        q.push(req(4)); // small
        assert_eq!(q.pop().map(|j| j.states.len()), Some(4));
        assert_eq!(q.pop().map(|j| j.states.len()), Some(4));
        // Head exhausted its overtake budget: FIFO resumes.
        q.push(req(2));
        assert_eq!(q.pop().map(|j| j.states.len()), Some(64));
        assert_eq!(q.pop().map(|j| j.states.len()), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn admission_small_head_is_fifo() {
        let mut q: Admission<u64, u64> = Admission::new(8, 4);
        q.push(req(4));
        q.push(req(2));
        assert_eq!(q.pop().map(|j| j.states.len()), Some(4));
        assert_eq!(q.pop().map(|j| j.states.len()), Some(2));
    }

    #[test]
    fn shape_key_fingerprint_distinguishes_variants() {
        let a = ShapeKey { algo: "fft", variant: 0 };
        let b = ShapeKey { algo: "fft", variant: 1 };
        let c = ShapeKey { algo: "sort", variant: 0 };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), ShapeKey { algo: "fft", variant: 0 }.fingerprint());
    }
}
