//! Phase-level telemetry: zero-cost spans, counters, and run reports.
//!
//! The engine's communication metrics ([`crate::metrics`]) are analytic —
//! they count messages and degrees the paper's cost model talks about. This
//! module adds the *time* axis: where a run's wall-clock actually goes, per
//! executor phase and per worker, plus the serving-layer counters (queue
//! wait, plan-cache behavior, pool reuse) that the `JobServer` exports.
//!
//! The design discipline mirrors [`crate::fault`]:
//!
//! * **Addressing is static.** Every instrumented phase is a variant of the
//!   [`Site`] enum; recording indexes a flat per-worker slot array — no
//!   hashing, no locks, no allocation on the hot path.
//! * **Arming is an `Option`.** Executors thread an
//!   `Option<Arc<TelemetrySink>>` through their run options; a disarmed run
//!   pays one discriminant test per phase and never calls
//!   `Instant::now()` — the same zero-cost rule the fault framework obeys,
//!   pinned by the same counting-allocator tests and by `nob-lint`'s clock
//!   gate (NL007).
//! * **Slots are pre-sized.** [`TelemetrySink::for_workers`] allocates every
//!   slot up front, so armed steady-state recording is allocation-free too.
//!   Recording against a worker index beyond the sink's size is silently
//!   dropped (bounds-checked), never a panic.
//!
//! Counters use relaxed atomics: totals are exact because every increment
//! lands, but a snapshot taken while a run is in flight is a racy read —
//! take reports after the run (or job) completes.
//!
//! Reports serialize to a stable, hand-rolled JSON schema tagged
//! `nob-telemetry-v1` (see [`RunReport::to_json`] and
//! [`ServerReport::to_json`]) that external tooling can parse; the repo
//! benchmark embeds both reports verbatim in its `layers.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// An instrumented phase of one of the executors. Variant order is the slot
/// index; names (see [`Site::name`]) reuse the fault-site vocabulary where a
/// failpoint exists at the same boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// Serial engine: one planned superstep (compile-time routed).
    SerialPlanned,
    /// Serial engine: one dynamic superstep's VP execution sweep.
    SerialExec,
    /// Sharded executor: per-worker planned-path sizing (route enumeration
    /// or cached-total application).
    ShardPrepare,
    /// Sharded executor: dynamic-tier VP execution chunk.
    ShardExec,
    /// Sharded executor: planned-tier VP execution chunk.
    ShardExecPlanned,
    /// Sharded executor: zero-barrier fused planned step.
    ShardFusedExec,
    /// Sharded executor: planned-tier post-barrier commit.
    ShardCommit,
    /// Sharded executor: dynamic-tier mailbox flush.
    ShardFlush,
    /// Sharded executor: dynamic-tier gather of inbound messages.
    ShardGather,
    /// Coordinator: per-superstep epoch merge.
    ShardMerge,
    /// Sharded executor: time spent blocked in the gang barrier.
    ShardBarrierWait,
}

impl Site {
    /// Number of instrumented sites (the slot-array length).
    pub const COUNT: usize = 11;

    /// Every site, in slot order — iterate this to build a full report.
    pub const ALL: [Site; Site::COUNT] = [
        Site::SerialPlanned,
        Site::SerialExec,
        Site::ShardPrepare,
        Site::ShardExec,
        Site::ShardExecPlanned,
        Site::ShardFusedExec,
        Site::ShardCommit,
        Site::ShardFlush,
        Site::ShardGather,
        Site::ShardMerge,
        Site::ShardBarrierWait,
    ];

    /// The site's stable name, matching the fault-site string where one
    /// instruments the same phase boundary.
    pub fn name(self) -> &'static str {
        match self {
            Site::SerialPlanned => "serial:planned",
            Site::SerialExec => "serial:exec",
            Site::ShardPrepare => "shard:prepare",
            Site::ShardExec => "shard:exec",
            Site::ShardExecPlanned => "shard:exec_planned",
            Site::ShardFusedExec => "shard:fused_exec",
            Site::ShardCommit => "shard:commit",
            Site::ShardFlush => "shard:flush",
            Site::ShardGather => "shard:gather",
            Site::ShardMerge => "shard:merge",
            Site::ShardBarrierWait => "shard:barrier_wait",
        }
    }

    /// The site's slot index (its variant order).
    pub fn index(self) -> usize {
        self as usize
    }

    fn from_index(i: usize) -> Option<Site> {
        Site::ALL.get(i).copied()
    }
}

/// A serving-layer counter slot. Variant order is the slot index; the
/// [`ServerReport`] snapshot names each one in its JSON schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Jobs popped from the admission queue (dispatched to either path).
    Jobs,
    /// Total nanoseconds jobs spent queued before dispatch.
    QueueWaitNanos,
    /// Total nanoseconds jobs spent in service (dispatch to fulfillment).
    ServiceNanos,
    /// Total nanoseconds spent handing a job's shared view to the gang.
    DispatchNanos,
    /// Gang dispatches performed.
    DispatchCount,
    /// Total nanoseconds spent resetting pooled gang state between jobs.
    EpochResetNanos,
    /// Gang epoch resets performed.
    EpochResetCount,
    /// Admission-queue overtakes (a small job jumped a large head).
    Overtakes,
    /// Plan-cache hits.
    CacheHits,
    /// Plan-cache misses (cold builds).
    CacheMisses,
    /// Plan-cache evictions (LRU-by-bytes budget pressure).
    CacheEvictions,
    /// Gauge: compiled bytes currently resident in the plan cache.
    CacheBytes,
    /// Gauge: the widest single worker's double-buffered mailbox-arena
    /// footprint seen so far, in slab bytes (a high-water mark recorded
    /// via [`TelemetrySink::set_max`] as each worker retires a run).
    ArenaBytes,
    /// Worker kits reused from the pool instead of freshly allocated.
    PoolReuses,
    /// Jobs routed to the scheduler's serial path.
    SerialJobs,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 15;

    /// The counter's slot index (its variant order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One worker's flat telemetry slots. All interior-mutable so the sink can
/// be shared as `Arc<TelemetrySink>` across a gang.
#[derive(Debug)]
struct WorkerSlots {
    nanos: [AtomicU64; Site::COUNT],
    count: [AtomicU64; Site::COUNT],
    /// Last phase this worker *entered* (site index + 1; 0 = none yet).
    last_site: AtomicU64,
    /// Superstep of the last phase entry.
    last_superstep: AtomicU64,
    /// Last barrier round this worker arrived at (round + 1; 0 = never).
    arrived_round: AtomicU64,
}

fn zero_slots<const N: usize>() -> [AtomicU64; N] {
    std::array::from_fn(|_| AtomicU64::new(0))
}

impl WorkerSlots {
    fn new() -> Self {
        WorkerSlots {
            nanos: zero_slots(),
            count: zero_slots(),
            last_site: AtomicU64::new(0),
            last_superstep: AtomicU64::new(0),
            arrived_round: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for a in self.nanos.iter().chain(self.count.iter()) {
            a.store(0, Ordering::Relaxed);
        }
        self.last_site.store(0, Ordering::Relaxed);
        self.last_superstep.store(0, Ordering::Relaxed);
        self.arrived_round.store(0, Ordering::Relaxed);
    }
}

/// The phase-level telemetry recorder: per-worker span slots plus a block
/// of serving-layer counters. See the module docs for the arming model and
/// the zero-cost rule.
#[derive(Debug)]
pub struct TelemetrySink {
    workers: Vec<WorkerSlots>,
    counters: [AtomicU64; Counter::COUNT],
}

impl Default for TelemetrySink {
    fn default() -> Self {
        TelemetrySink::for_workers(1)
    }
}

impl TelemetrySink {
    /// A sink with every slot pre-sized for `n` workers, so armed
    /// steady-state recording allocates nothing. Size it for the widest
    /// gang that will record into it (recording beyond the size is
    /// dropped, not grown).
    pub fn for_workers(n: usize) -> Self {
        TelemetrySink {
            workers: (0..n.max(1)).map(|_| WorkerSlots::new()).collect(),
            counters: zero_slots(),
        }
    }

    /// Number of worker slot rows.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Stamps the phase a worker is *entering* (for stall attribution:
    /// see [`TelemetrySink::last_phase`]). Allocation-free.
    pub fn enter(&self, worker: usize, site: Site, superstep: usize) {
        if let Some(w) = self.workers.get(worker) {
            w.last_site.store(site.index() as u64 + 1, Ordering::Relaxed);
            w.last_superstep.store(superstep as u64, Ordering::Relaxed);
        }
    }

    /// Adds one completed span at a site for a worker. Allocation-free.
    pub fn record(&self, worker: usize, site: Site, dur: Duration) {
        if let Some(w) = self.workers.get(worker) {
            w.nanos[site.index()].fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
            w.count[site.index()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stamps a worker's arrival at barrier round `round` (1-based), so a
    /// stall report can tell arrived workers from missing ones.
    pub fn arrive(&self, worker: usize, round: u64) {
        if let Some(w) = self.workers.get(worker) {
            w.arrived_round.store(round.wrapping_add(1), Ordering::Relaxed);
        }
    }

    /// Adds `delta` to a serving-layer counter.
    pub fn add(&self, c: Counter, delta: u64) {
        self.counters[c.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets a serving-layer counter (for gauges like
    /// [`Counter::CacheBytes`]).
    pub fn set(&self, c: Counter, value: u64) {
        self.counters[c.index()].store(value, Ordering::Relaxed);
    }

    /// Raises a gauge to `value` if it is below it (high-water marks like
    /// [`Counter::ArenaBytes`], where concurrent workers race to record
    /// and only the maximum is meaningful).
    pub fn set_max(&self, c: Counter, value: u64) {
        self.counters[c.index()].fetch_max(value, Ordering::Relaxed);
    }

    /// Reads a serving-layer counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// The last phase a worker entered and at which superstep, or `None`
    /// if it never entered one (or the index is out of range).
    pub fn last_phase(&self, worker: usize) -> Option<(Site, u64)> {
        let w = self.workers.get(worker)?;
        let tag = w.last_site.load(Ordering::Relaxed);
        let site = Site::from_index(tag.checked_sub(1)? as usize)?;
        Some((site, w.last_superstep.load(Ordering::Relaxed)))
    }

    /// The last barrier round (1-based) a worker arrived at, or `None` if
    /// it never arrived at one.
    pub fn arrived_round(&self, worker: usize) -> Option<u64> {
        let w = self.workers.get(worker)?;
        let tag = w.arrived_round.load(Ordering::Relaxed);
        tag.checked_sub(1)
    }

    /// Total `(nanos, spans)` recorded at a site, summed across workers.
    pub fn site_totals(&self, site: Site) -> (u64, u64) {
        let i = site.index();
        let mut nanos = 0u64;
        let mut count = 0u64;
        for w in &self.workers {
            nanos += w.nanos[i].load(Ordering::Relaxed);
            count += w.count[i].load(Ordering::Relaxed);
        }
        (nanos, count)
    }

    /// Zeroes every slot and counter so the sink can observe a fresh run.
    pub fn reset(&self) {
        for w in &self.workers {
            w.reset();
        }
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Snapshots the per-site span totals into a [`RunReport`].
    pub fn run_report(&self) -> RunReport {
        RunReport {
            workers: self.workers.len(),
            sites: Site::ALL
                .iter()
                .map(|&s| {
                    let (nanos, count) = self.site_totals(s);
                    SiteReport { site: s.name(), nanos, count }
                })
                .collect(),
        }
    }

    /// Snapshots the serving-layer counters into a [`ServerReport`].
    pub fn server_report(&self) -> ServerReport {
        ServerReport {
            jobs: self.get(Counter::Jobs),
            queue_wait_nanos: self.get(Counter::QueueWaitNanos),
            service_nanos: self.get(Counter::ServiceNanos),
            dispatch_nanos: self.get(Counter::DispatchNanos),
            dispatch_count: self.get(Counter::DispatchCount),
            epoch_reset_nanos: self.get(Counter::EpochResetNanos),
            epoch_reset_count: self.get(Counter::EpochResetCount),
            overtakes: self.get(Counter::Overtakes),
            cache_hits: self.get(Counter::CacheHits),
            cache_misses: self.get(Counter::CacheMisses),
            cache_evictions: self.get(Counter::CacheEvictions),
            cache_bytes: self.get(Counter::CacheBytes),
            arena_bytes: self.get(Counter::ArenaBytes),
            pool_reuses: self.get(Counter::PoolReuses),
            serial_jobs: self.get(Counter::SerialJobs),
        }
    }
}

/// Aggregated span totals for one run (or a series of runs sharing a
/// sink): every [`Site`], in slot order, with nanoseconds and span count
/// summed across workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Worker slot rows the sink was sized for.
    pub workers: usize,
    /// One entry per [`Site`], in [`Site::ALL`] order — always all of
    /// them, zeros included, so consumers can rely on the site list.
    pub sites: Vec<SiteReport>,
}

/// One site's aggregated totals inside a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteReport {
    /// The site's stable name.
    pub site: &'static str,
    /// Total nanoseconds spent in the phase, across workers.
    pub nanos: u64,
    /// Number of spans recorded.
    pub count: u64,
}

impl RunReport {
    /// Total nanoseconds recorded at a named site, `0` if unknown.
    pub fn nanos(&self, site: Site) -> u64 {
        self.sites.iter().find(|s| s.site == site.name()).map_or(0, |s| s.nanos)
    }

    /// Span count recorded at a named site, `0` if unknown.
    pub fn count(&self, site: Site) -> u64 {
        self.sites.iter().find(|s| s.site == site.name()).map_or(0, |s| s.count)
    }

    /// The `nob-telemetry-v1` JSON form:
    /// `{"schema":"nob-telemetry-v1","kind":"run","workers":N,
    ///   "sites":[{"site":"serial:exec","nanos":0,"count":0},...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.sites.len() * 48);
        out.push_str("{\"schema\":\"nob-telemetry-v1\",\"kind\":\"run\",\"workers\":");
        out.push_str(&self.workers.to_string());
        out.push_str(",\"sites\":[");
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"site\":\"");
            out.push_str(s.site);
            out.push_str("\",\"nanos\":");
            out.push_str(&s.nanos.to_string());
            out.push_str(",\"count\":");
            out.push_str(&s.count.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// A snapshot of the serving-layer counters (see [`Counter`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Jobs dispatched from the admission queue.
    pub jobs: u64,
    /// Total queue-wait nanoseconds across jobs.
    pub queue_wait_nanos: u64,
    /// Total service nanoseconds across jobs.
    pub service_nanos: u64,
    /// Total gang-dispatch nanoseconds.
    pub dispatch_nanos: u64,
    /// Gang dispatches.
    pub dispatch_count: u64,
    /// Total pooled-state epoch-reset nanoseconds.
    pub epoch_reset_nanos: u64,
    /// Epoch resets.
    pub epoch_reset_count: u64,
    /// Admission overtakes.
    pub overtakes: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Compiled bytes resident in the plan cache (gauge).
    pub cache_bytes: u64,
    /// Widest single worker's mailbox-arena slab bytes (high-water gauge).
    pub arena_bytes: u64,
    /// Worker-kit pool reuses.
    pub pool_reuses: u64,
    /// Serial-path jobs.
    pub serial_jobs: u64,
}

impl ServerReport {
    /// The `nob-telemetry-v1` JSON form: a flat object of the counter
    /// fields plus the schema tags.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":\"nob-telemetry-v1\",\"kind\":\"server\",\
             \"jobs\":{},\"queue_wait_nanos\":{},\"service_nanos\":{},\
             \"dispatch_nanos\":{},\"dispatch_count\":{},\
             \"epoch_reset_nanos\":{},\"epoch_reset_count\":{},\
             \"overtakes\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"cache_evictions\":{},\"cache_bytes\":{},\"arena_bytes\":{},\
             \"pool_reuses\":{},\"serial_jobs\":{}}}",
            self.jobs,
            self.queue_wait_nanos,
            self.service_nanos,
            self.dispatch_nanos,
            self.dispatch_count,
            self.epoch_reset_nanos,
            self.epoch_reset_count,
            self.overtakes,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_bytes,
            self.arena_bytes,
            self.pool_reuses,
            self.serial_jobs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_report_roundtrip() {
        let sink = TelemetrySink::for_workers(2);
        sink.record(0, Site::ShardExec, Duration::from_nanos(100));
        sink.record(1, Site::ShardExec, Duration::from_nanos(50));
        sink.record(1, Site::ShardBarrierWait, Duration::from_nanos(7));
        let report = sink.run_report();
        assert_eq!(report.workers, 2);
        assert_eq!(report.sites.len(), Site::COUNT);
        assert_eq!(report.nanos(Site::ShardExec), 150);
        assert_eq!(report.count(Site::ShardExec), 2);
        assert_eq!(report.nanos(Site::ShardBarrierWait), 7);
        assert_eq!(report.nanos(Site::SerialExec), 0);
    }

    #[test]
    fn out_of_range_worker_is_dropped_not_panicked() {
        let sink = TelemetrySink::for_workers(1);
        sink.record(5, Site::ShardExec, Duration::from_nanos(9));
        sink.enter(5, Site::ShardExec, 3);
        sink.arrive(5, 1);
        assert_eq!(sink.run_report().nanos(Site::ShardExec), 0);
        assert_eq!(sink.last_phase(5), None);
        assert_eq!(sink.arrived_round(5), None);
    }

    #[test]
    fn last_phase_and_arrival_stamps() {
        let sink = TelemetrySink::for_workers(2);
        assert_eq!(sink.last_phase(0), None);
        assert_eq!(sink.arrived_round(0), None);
        sink.enter(0, Site::ShardFlush, 4);
        sink.arrive(0, 2);
        assert_eq!(sink.last_phase(0), Some((Site::ShardFlush, 4)));
        assert_eq!(sink.arrived_round(0), Some(2));
        // Round 0 arrival is distinguishable from "never arrived".
        sink.arrive(1, 0);
        assert_eq!(sink.arrived_round(1), Some(0));
    }

    #[test]
    fn counters_and_server_report() {
        let sink = TelemetrySink::for_workers(1);
        sink.add(Counter::Jobs, 3);
        sink.add(Counter::CacheHits, 2);
        sink.add(Counter::CacheMisses, 1);
        sink.set(Counter::CacheBytes, 4096);
        sink.set(Counter::CacheBytes, 2048);
        sink.set_max(Counter::ArenaBytes, 100);
        sink.set_max(Counter::ArenaBytes, 40);
        let r = sink.server_report();
        assert_eq!(r.jobs, 3);
        assert_eq!(r.cache_hits + r.cache_misses, r.jobs);
        assert_eq!(r.cache_bytes, 2048);
        assert_eq!(r.arena_bytes, 100, "high-water gauge keeps the maximum");
    }

    #[test]
    fn reset_zeroes_everything() {
        let sink = TelemetrySink::for_workers(1);
        sink.record(0, Site::SerialExec, Duration::from_nanos(10));
        sink.enter(0, Site::SerialExec, 1);
        sink.arrive(0, 3);
        sink.add(Counter::Jobs, 1);
        sink.reset();
        assert_eq!(sink.run_report().nanos(Site::SerialExec), 0);
        assert_eq!(sink.last_phase(0), None);
        assert_eq!(sink.arrived_round(0), None);
        assert_eq!(sink.server_report(), ServerReport::default());
    }

    #[test]
    fn json_schemas_are_stable() {
        let sink = TelemetrySink::for_workers(1);
        let run = sink.run_report().to_json();
        assert!(run.starts_with("{\"schema\":\"nob-telemetry-v1\",\"kind\":\"run\""));
        for s in Site::ALL {
            assert!(run.contains(s.name()), "run report lists {}", s.name());
        }
        let srv = sink.server_report().to_json();
        assert!(srv.starts_with("{\"schema\":\"nob-telemetry-v1\",\"kind\":\"server\""));
        for key in ["queue_wait_nanos", "cache_evictions", "pool_reuses"] {
            assert!(srv.contains(key), "server report has {key}");
        }
    }

    #[test]
    fn site_names_are_unique_and_index_matches_order() {
        for (i, s) in Site::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut names: Vec<_> = Site::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Site::COUNT);
    }
}
