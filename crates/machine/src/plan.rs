//! Static communication plans: the compiled form of an *oblivious*
//! superstep.
//!
//! The defining property of a network-oblivious algorithm is that its
//! communication pattern is a **static function of the VP index and the
//! superstep** — yet a closure-driven engine still pays per-message costs
//! (cluster validation, per-message metering, a staged counting-sort
//! scatter that touches every payload twice) as if destinations were
//! dynamic. A [`StepPlan`] exploits the declared structure instead:
//!
//! * **Analytic metrics** ([`nob_core::metrics::StepMetrics`]): the declared
//!   route is enumerated **once, at program build time, or computed in
//!   closed form by a route value** ([`DeclaredRoute`]). Enumeration is
//!   three counter increments per message (sent, received, and the traffic
//!   of the lowest fold-tree node the message stays inside) into `3·v` words
//!   of scratch, then one `O(v)` bottom-up fold — `O(v · out_degree)` for
//!   a closure. A route value narrows or skips the walk: an [`InCluster`]
//!   route is stated for one `label`-cluster that every cluster runs alike,
//!   so its plan enumerates cluster 0 alone, in `O((v >> label) ·
//!   out_degree)`, and lifts it to the machine; the butterfly [`Xor`]
//!   states the same numbers in `O(log v)`. Every later
//!   execution emits the superstep record in `O(log v)`, bit-for-bit
//!   identical to what the engine's dynamic path meters with the same
//!   builder (dummies included), at every granularity at once.
//! * **A one-time cluster-constraint proof**: every declared `(src, dst)`
//!   pair is checked against [`message_allowed`] at compile time, so
//!   validated runs skip the per-message check entirely. A route that
//!   *violates* the constraint is recorded as a [`StepPlan::fault`]: running
//!   it with validation on reports the violation (like the dynamic engine
//!   would), and with validation off the step simply falls back to the
//!   dynamic path.
//! * **A direct-write scatter**: per execution, one pass over the route
//!   yields exact per-destination counts; after the ordinary prefix sum the
//!   VP closures write payloads **straight into the destination arena
//!   slot** through cursor-guarded raw writes
//!   (`crate::mailbox::DirectOut`) — no staging copy, no counting sort.
//!   The closures run through the step's chunk kernel
//!   (`crate::program::ChunkKernel`), one monomorphic loop per chunk of
//!   VPs, which evaluates the same route inline for each send's
//!   destination.
//!
//! A *declared* plan deliberately stores **no O(v) or O(messages) tables** —
//! only the shared route function, `O(log v)` metric words and a
//! [`PlanLayout`] summary of the per-destination payload counts: `O(1)` when
//! they are uniform, else a prefix-sum table over **one period** of them
//! (32 entries for a Columnsort base-case gather at any `v`; a layout with
//! no period shorter than [`LAYOUT_TABLE_MAX_V`] keeps no table at all). And
//! a program compiles each *distinct* superstep once: a recursive schedule
//! repeats its sub-schedules by reference
//! ([`crate::program::Program::repeat`]), sharing their plans. Together that
//! is why an 850-superstep folded Columnsort carries kilobytes of plan
//! state, not hundreds of megabytes of precomputed slots — the 213-step
//! `v = 2^12` instance holds 15 plans in 2.9 kB, where one plan per step
//! with `v + 1`-entry tables (128 of them, 16 388 B each) made it 2.1 MB.
//! A *captured* plan (`StepPlan::compile_captured`) is the deliberate
//! exception: it **is** a table — the exact `(dst, kind)` sequence of one
//! recorded dynamic superstep, wrapped in a route closure and compiled
//! through the same pipeline, so replays get the identical metrics and
//! cluster proof as declared routes.
//!
//! # Mis-declared routes
//!
//! A declared step's body names no destination: its writer
//! ([`crate::program::Slots`]) fills the VP's next [`Route::Data`] slot per
//! send and takes the destination from the route, and the engine emits the
//! declared dummies itself. So a body cannot send to another destination,
//! reorder its sends, or send a payload as a dummy — there is no second
//! copy of the pattern to drift from the first. What a body can still get
//! wrong is *how many* payloads it sends, and both directions are exact
//! [`ModelError::PlanMismatch`]es on every path, validated or not: a send
//! past the VP's [`Route::End`] (or its `out_degree`) is refused by the
//! writer, and a payload slot left unsent leaves its destination short,
//! which the written-total check finds before any arena is published (the
//! staging paths find it when the body returns). A *captured* route is a
//! table the body sends by destination against, so its replay compares
//! every send with the table before writing it.
//!
//! Safety never depends on any of this: the direct writers still bound
//! every write by the destination's machine range, shard cluster and
//! planned slot range, and the engine checks the written total before
//! publishing an arena, so a mismatch surfaces as an error, never as
//! corrupt memory or metrics.

use crate::program::Ctx;
use nob_core::folding::{common_prefix, message_allowed};
use nob_core::metrics::{StepMetrics, StepMetricsBuilder};
use nob_core::ModelError;

/// Longest *period* of a non-uniform per-destination layout that is kept
/// as an explicit offsets table (`(period + 1) · 4` bytes per distinct plan
/// — 16 KiB at this cap; a layout with no shorter period has period `v`, so
/// on machines up to this size every layout is kept). Beyond it a plan
/// simply keeps the counting-pass path: a program of many distinct steps
/// must never trade one route enumeration per execution for hundreds of
/// megabytes of resident tables.
pub const LAYOUT_TABLE_MAX_V: usize = 4096;

/// The per-destination payload shape of a plan, detected once at compile
/// time. It lets the executors size and partition a write arena **without
/// enumerating the route** (the planned path's remaining per-message cost):
/// the serial engine skips `StepPlan::count_data` entirely, and a sharded
/// worker running a shard-local step skips its region-counting pass.
#[derive(Debug, Clone)]
pub enum PlanLayout {
    /// Every destination receives exactly this many payload messages
    /// (`O(1)` state — covers butterflies, shuffles, transposes, and idle
    /// steps, where the count is 0).
    Uniform(u32),
    /// Prefix-sum offsets over one period of the counts (`p + 1` entries,
    /// `p` the smallest power of two with `count(d) == count(d mod p)` for
    /// every `d`): destination `d` receives `table[i + 1] - table[i]`
    /// payloads at `i = d mod p`. A segment-wise fan-in or fan-out (a leader
    /// per 32 VPs) has the segment as its period whatever `v` is; a layout
    /// without a shorter one has `p = v`. Only kept for periods up to
    /// [`LAYOUT_TABLE_MAX_V`].
    Table(Box<[u32]>),
}

impl PlanLayout {
    /// Payload messages delivered to destination `dst`.
    #[inline]
    pub(crate) fn count(&self, dst: usize) -> u32 {
        match self {
            PlanLayout::Uniform(c) => *c,
            PlanLayout::Table(t) => {
                // `t.len() == p + 1` with `p ≥ 2` a power of two.
                let i = dst & (t.len() - 2);
                t[i + 1] - t[i]
            }
        }
    }

    /// Detects the layout of a per-destination count vector (one count per
    /// VP, so a power-of-two length).
    fn detect(counts: &[u32], total_data: u64) -> Option<PlanLayout> {
        // The common case first: this comparison against one value
        // vectorises, the period scan below (an index that depends on what
        // it has found so far) does not.
        let first = counts.first().copied().unwrap_or(0);
        if counts.iter().all(|&c| c == first) {
            return Some(PlanLayout::Uniform(first));
        }
        // The smallest power-of-two period, in one pass: a mismatch at `d`
        // rules out every period ≤ `d` (each index below `d` already agrees
        // with its residue), and any period above `d` trivially holds so far.
        let mut period = 1usize;
        for (d, &c) in counts.iter().enumerate() {
            if c != counts[d & (period - 1)] {
                period = (d + 1).next_power_of_two();
            }
        }
        // A table only helps when it is small, and its entries must fit the
        // u32 offsets the arenas run on.
        if period > LAYOUT_TABLE_MAX_V || total_data >= u64::from(u32::MAX) {
            return None;
        }
        let mut table = Vec::with_capacity(period + 1);
        let mut acc = 0u32;
        table.push(0);
        for &c in &counts[..period] {
            acc += c; // fits: one period's sum ≤ total_data < u32::MAX
            table.push(acc);
        }
        Some(PlanLayout::Table(table.into_boxed_slice()))
    }
}

/// One declared message slot of an oblivious route: what the VP at `ctx`
/// does with its `k`-th send of the superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A payload message to the given VP: the body's next
    /// [`crate::program::Slots::send`] fills it.
    Data(usize),
    /// A wiseness dummy to the given VP, emitted by the engine (never by
    /// the body): metered, never delivered.
    Dummy(usize),
    /// No message in this slot (lets a single `out_degree` cover VPs with
    /// different fan-outs — boundary VPs, non-leaders, unwise variants).
    Skip,
    /// No message in this slot **or any later slot of this VP**: a
    /// terminator that lets sparse fan-outs (a leader scattering to its
    /// whole segment while everyone else idles) cost one route call per
    /// idle VP instead of `out_degree` — at compile and in every
    /// enumeration after it (the engine's counting pass, the per-width
    /// send totals). Use [`Route::Skip`] only for *holes*
    /// followed by more messages.
    End,
}

/// The declared route of an oblivious superstep
/// ([`crate::program::Program::step_oblivious`]): slot `k` of each VP, a
/// static function of the VP index.
///
/// Two kinds of value implement it. Every closure `Fn(&Ctx, usize) ->
/// Route` does, and its plan is compiled by enumerating every slot of every
/// VP once. A *route value* also knows its plan in closed form — metrics,
/// payload total, layout, locality and first fault: [`Xor`] in `O(log v)`,
/// enumerating nothing, and [`InCluster`] from one cluster's slots. The
/// contract is that the closed form equals, field for field, what
/// enumerating the value's own [`DeclaredRoute::slot`]s would find, and the
/// trait is sealed so that no route outside this crate can claim a closed
/// form that disagrees with its slots.
///
/// A closure passed inline names its context type, `|ctx: &Ctx, k| …`:
/// the compiler infers a closure's signature only from an `Fn` bound.
pub trait DeclaredRoute: sealed::ClosedForm {
    /// What VP `ctx.vp` does with its `k`-th send of the superstep.
    fn slot(&self, ctx: &Ctx, k: usize) -> Route;
}

impl<F: Fn(&Ctx, usize) -> Route> DeclaredRoute for F {
    #[inline(always)]
    fn slot(&self, ctx: &Ctx, k: usize) -> Route {
        self(ctx, k)
    }
}

impl<F: Fn(&Ctx, usize) -> Route> sealed::ClosedForm for F {}

/// The butterfly exchange `vp → vp ⊕ mask`: slot 0 of every VP is a
/// payload to its partner, every later slot [`Route::End`]. Its plan is
/// computed in closed form: partners share their top `cp = log v −
/// bitlen(mask)` bits, so the degree at fold `2^j` is `v / 2^j` for `j >
/// cp` and 0 below, every destination receives one payload, and a
/// `label`-superstep faults exactly when `mask ≥ v` or `label > cp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xor(pub usize);

impl DeclaredRoute for Xor {
    #[inline(always)]
    fn slot(&self, ctx: &Ctx, k: usize) -> Route {
        if k == 0 {
            Route::Data(ctx.vp ^ self.0)
        } else {
            Route::End
        }
    }
}

impl sealed::ClosedForm for Xor {
    fn summary(&self, v: usize, log_v: u32, _: usize, label: u32, _: usize) -> Option<Summary> {
        let Xor(mask) = *self;
        // Every VP's one message faults alike, so enumeration stops at VP 0's.
        if let Some(fault) = message_fault(0, mask, v, log_v, label, true) {
            return Some(Summary::faulted(StepMetrics::silent(log_v), 0, fault));
        }
        let cp = common_prefix(0, mask, log_v);
        Some(Summary {
            metrics: StepMetrics::exchange(log_v, cp),
            total_data: v as u64,
            fault: None,
            min_locality: cp,
            layout: Some(PlanLayout::Uniform(1)),
        })
    }

    fn payloads_per_vp(&self, out_degree: usize) -> Option<u64> {
        Some(u64::from(out_degree > 0))
    }
}

/// A route stated for one aligned cluster of `c` VPs — the `label`-cluster
/// of a machine of `v = c · 2^label` VPs — which every cluster runs alike:
/// `f(off, k)` answers slot `k < slots` of the VP at offset `off` of its
/// cluster, naming destinations by their offset in the same cluster, and
/// the route adds the cluster base. So the route is translation invariant
/// and keeps to its cluster by construction; the one way to mis-declare it
/// is an offset `≥ c`, which is a compile fault. After the `slots` answered
/// by `f` come `dummies` wiseness slots (JACM §4.1): VP `j < c/2` of cluster
/// 0, and no other, sends each of them as a dummy to `j + c/2`. An
/// [`Route::End`] from `f` ends its VP's declaration, dummies included.
///
/// Its plan is compiled from cluster 0 alone, in `O(c · out_degree)`
/// rather than `O(v · out_degree)`: a fold `2^j` with `j ≤ label` holds
/// whole clusters, so all of its traffic is internal; a finer fold reads
/// cluster 0's degrees, and its message totals are cluster 0's plus the
/// other clusters' copies of it without the dummies. Payload total, layout,
/// locality and first fault are cluster 0's too (the layout repeats with
/// period `c`), and the per-shard send totals of a machine folded onto
/// shards of at least `c` VPs need no walk at all.
///
/// `c` is a power of two, `2 ≤ c ≤ v`; the route holds the mask `c − 1`, so
/// a send computes its cluster base with one `and`.
#[derive(Debug, Clone, Copy)]
pub struct InCluster<F> {
    mask: usize,
    slots: usize,
    dummies: usize,
    f: F,
}

impl<F: Fn(usize, usize) -> Route> InCluster<F> {
    /// The route whose every aligned cluster of `c` VPs declares `f`'s
    /// `slots` slots per VP, then `dummies` wiseness dummy slots (see the
    /// type docs).
    pub fn new(c: usize, slots: usize, dummies: usize, f: F) -> Self {
        InCluster { mask: c.wrapping_sub(1), slots, dummies, f }
    }

    /// The cluster size, when it is one the closed forms hold for on
    /// `M(v)`; any other size compiles by enumeration like a closure.
    fn size(&self, v: usize) -> Option<usize> {
        let c = self.mask.wrapping_add(1);
        (c.is_power_of_two() && (2..=v).contains(&c)).then_some(c)
    }
}

impl<F: Fn(usize, usize) -> Route> DeclaredRoute for InCluster<F> {
    #[inline(always)]
    fn slot(&self, ctx: &Ctx, k: usize) -> Route {
        let off = ctx.vp & self.mask;
        if k < self.slots {
            match (self.f)(off, k) {
                Route::Data(d) => Route::Data(ctx.vp - off + d),
                Route::Dummy(d) => Route::Dummy(ctx.vp - off + d),
                end_or_skip => end_or_skip,
            }
        } else if k - self.slots < self.dummies && ctx.vp < self.mask.wrapping_add(1) / 2 {
            Route::Dummy(ctx.vp + self.mask.wrapping_add(1) / 2)
        } else {
            Route::End
        }
    }
}

impl<F: Fn(usize, usize) -> Route> sealed::ClosedForm for InCluster<F> {
    fn summary(
        &self,
        v: usize,
        log_v: u32,
        n: usize,
        label: u32,
        out_degree: usize,
    ) -> Option<Summary> {
        // A superstep coarser than the clusters would let an offset `≥ c`
        // escape cluster 0 unfaulted, into traffic cluster 0 cannot stand
        // for: such a step enumerates the machine.
        let cluster = Cluster { label: log_v - self.size(v)?.ilog2(), extra_from: self.slots };
        (label >= cluster.label).then(|| enumerate(v, log_v, n, label, out_degree, self, cluster))
    }

    fn cluster_size(&self, v: usize) -> Option<usize> {
        self.size(v)
    }
}

mod sealed {
    use super::{ModelError, PlanLayout, StepMetrics};

    /// The closed-form half of a [`super::DeclaredRoute`]. Private to this
    /// crate, which seals the trait: only a route value defined here can
    /// answer these hooks, and each answer must equal what enumerating the
    /// value's slots finds.
    pub trait ClosedForm {
        /// The plan of this route for a `label`-superstep on `M(v)` with
        /// `out_degree ≥ 1` slots per VP, or `None` to enumerate it.
        fn summary(
            &self,
            _v: usize,
            _log_v: u32,
            _n: usize,
            _label: u32,
            _out_degree: usize,
        ) -> Option<Summary> {
            None
        }

        /// The size of the aligned clusters of `M(v)` this route is stated
        /// per — every one of them sends what cluster 0 sends, translated,
        /// up to cluster 0's wiseness dummies — or `None`.
        fn cluster_size(&self, _v: usize) -> Option<usize> {
            None
        }

        /// The payloads each VP sends under `out_degree` slots, when it is
        /// the same for every VP, or `None` to enumerate them.
        fn payloads_per_vp(&self, _out_degree: usize) -> Option<u64> {
            None
        }
    }

    /// Everything a [`super::StepPlan`] knows about its route (see the
    /// fields there), enumerated or in closed form.
    pub struct Summary {
        pub(crate) metrics: StepMetrics,
        pub(crate) total_data: u64,
        pub(crate) fault: Option<ModelError>,
        pub(crate) min_locality: u32,
        pub(crate) layout: Option<PlanLayout>,
    }
}

use sealed::Summary;

impl Summary {
    /// A route that declares no message.
    fn silent(log_v: u32) -> Summary {
        Summary {
            metrics: StepMetrics::silent(log_v),
            total_data: 0,
            fault: None,
            min_locality: log_v,
            layout: Some(PlanLayout::Uniform(0)),
        }
    }

    /// A route whose enumeration stopped at `fault`, with the messages
    /// counted before it: it advertises no locality and no layout.
    fn faulted(metrics: StepMetrics, total_data: u64, fault: ModelError) -> Summary {
        Summary { metrics, total_data, fault: Some(fault), min_locality: 0, layout: None }
    }
}

/// Why a message `src → dst` of a `label`-superstep on `M(v)` may not be
/// sent, if it may not: a destination out of range, or — when
/// `check_cluster` — one outside the sender's `label`-cluster. A route's
/// compile checks both; a dynamic superstep checks the cluster only under
/// [`crate::RunOptions::validate`], and the range always, since every
/// engine indexes its receivers by it.
#[inline]
pub(crate) fn message_fault(
    src: usize,
    dst: usize,
    v: usize,
    log_v: u32,
    label: u32,
    check_cluster: bool,
) -> Option<ModelError> {
    if dst >= v {
        Some(ModelError::BadParameter {
            what: "dst",
            reason: "message destination out of machine range",
        })
    } else if check_cluster && !message_allowed(src, dst, log_v, label) {
        Some(ModelError::ClusterViolation { label, src, dst })
    } else {
        None
    }
}

/// The dynamic form of a route: object-safe so plans can be stored
/// per-superstep without generics.
pub(crate) type RouteDyn = dyn DeclaredRoute + Send + Sync;

/// A shared [`RouteDyn`]: the plan enumerates it, and a declared step's
/// chunk kernel holds the same object with its concrete type.
pub(crate) type RouteFn = std::sync::Arc<RouteDyn>;

/// The compiled communication plan of one oblivious superstep (see the
/// module docs). Built once per program by
/// [`crate::program::Program::step_oblivious`].
pub struct StepPlan {
    pub(crate) route: RouteFn,
    pub(crate) out_degree: usize,
    /// Machine geometry the plan was compiled for (route evaluation needs a
    /// full [`Ctx`]).
    pub(crate) v: usize,
    pub(crate) log_v: u32,
    pub(crate) n: usize,
    /// Precomputed per-fold-level metrics of the declared multiset.
    pub(crate) metrics: StepMetrics,
    /// Declared payload (deliverable) messages.
    pub(crate) total_data: u64,
    /// First route violation found at compile time (out-of-range
    /// destination or cluster escape), if any; a faulted plan is never
    /// executed directly.
    pub(crate) fault: Option<ModelError>,
    /// Cluster depth every *payload* message of this step stays within:
    /// `src` and `dst` of each payload share at least this many leading
    /// bits of their `log v`-bit VP ids (`log v` when the step sends no
    /// payloads, or only to self). Dummies are excluded — they write
    /// nothing, so they never force cross-shard machinery. A step is
    /// shard-local on `2^s` executor shards iff `min_locality >= s`, which
    /// is what makes it *fusible*: it can run with no barrier at all.
    pub(crate) min_locality: u32,
    /// Per-destination payload shape, when regular enough to exploit (see
    /// [`PlanLayout`]). `None` keeps the counting-pass path.
    pub(crate) layout: Option<PlanLayout>,
    /// Approximate resident bytes of this compiled plan: the struct itself,
    /// the layout table when one was materialized, and — for captured
    /// plans — the offset/slot tables owned by the route closure. The plan
    /// cache's LRU budget currency ([`crate::server::ServerConfig`]).
    pub(crate) approx_bytes: u64,
}

impl std::fmt::Debug for StepPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepPlan")
            .field("out_degree", &self.out_degree)
            .field("v", &self.v)
            .field("total_data", &self.total_data)
            .field("fault", &self.fault)
            .finish_non_exhaustive()
    }
}

/// The clusters an enumeration walks one of: `label`-clusters that all
/// send alike, except that slots from `extra_from` on (the wiseness dummies)
/// are cluster 0's alone. The whole machine is the one `0`-cluster.
struct Cluster {
    label: u32,
    extra_from: usize,
}

impl Cluster {
    /// The machine as its own cluster: a route stated for every VP.
    const MACHINE: Cluster = Cluster { label: 0, extra_from: usize::MAX };
}

/// Enumerates every declared slot of `route` in cluster 0 of `cluster` once:
/// three counter increments per message into the metrics builder, a
/// per-destination payload count for the layout, and the cluster-constraint
/// check that stops at the first fault; then lifts what cluster 0 sends to
/// the machine ([`StepMetrics::lifted`]).
fn enumerate<R: DeclaredRoute>(
    v: usize,
    log_v: u32,
    n: usize,
    label: u32,
    out_degree: usize,
    route: &R,
    cluster: Cluster,
) -> Summary {
    let log_c = log_v - cluster.label;
    let c = 1usize << log_c;
    let mut metrics = StepMetricsBuilder::new(log_c);
    let (mut data, mut extra) = (0u64, 0u64);
    let mut min_locality = log_v;
    // Transient per-destination payload counts (compile-time only): feeds
    // the layout detection, dropped before the plan is stored.
    let mut counts = vec![0u32; c];
    let mut counts_ok = true;
    for vp in 0..c {
        let ctx = Ctx { vp, v, log_v, n };
        for k in 0..out_degree {
            let (dst, is_data) = match route.slot(&ctx, k) {
                Route::Data(d) => (d, true),
                Route::Dummy(d) => (d, false),
                Route::Skip => continue,
                Route::End => break,
            };
            if let Some(fault) = message_fault(vp, dst, v, log_v, label, true) {
                // Cluster 0 comes first in the machine's enumeration order
                // too, so nothing past it has been counted there either.
                let metrics = metrics.finish().lifted(cluster.label, 0, 0);
                return Summary::faulted(metrics, data, fault);
            }
            metrics.record(vp, dst);
            extra += u64::from(k >= cluster.extra_from);
            if is_data {
                data += 1;
                match counts[dst].checked_add(1) {
                    Some(c) => counts[dst] = c,
                    // Dense beyond the design limit: the counting pass will
                    // surface the ModelError at run time; just decline to
                    // summarize the layout.
                    None => counts_ok = false,
                }
                if dst != vp {
                    min_locality = min_locality.min(log_v - 1 - (vp ^ dst).ilog2());
                }
            }
        }
    }
    let total_data = data << cluster.label;
    // Every cluster's counts are cluster 0's, so the machine's layout has
    // cluster 0's period.
    let (min_locality, layout) =
        if counts_ok { (min_locality, PlanLayout::detect(&counts, total_data)) } else { (0, None) };
    let copies = (1u64 << cluster.label) - 1;
    let metrics = metrics.finish().lifted(cluster.label, copies, extra);
    Summary { metrics, total_data, fault: None, min_locality, layout }
}

impl StepPlan {
    /// Compiles `route` for an `label`-superstep on `M(v)`: the analytic
    /// metrics, the payload total, the layout and the cluster-constraint
    /// proof, in closed form when the route is a value that has one, else by
    /// one enumeration of the declared multiset. Generic over the route so
    /// that enumeration runs with it inlined, through a reference the
    /// compiler may assume nothing else writes, so the route's captures are
    /// read once, not once per slot; the plan keeps `shared`, the same
    /// route, for its later enumerations.
    pub(crate) fn compile<R: DeclaredRoute>(
        v: usize,
        log_v: u32,
        n: usize,
        label: u32,
        out_degree: usize,
        route: &R,
        shared: RouteFn,
    ) -> StepPlan {
        // A step that declares no message slot (every shipped program ends
        // in one) has nothing to enumerate: no `O(v)` scratch, no scan.
        let Summary { metrics, total_data, fault, min_locality, layout } = if out_degree == 0 {
            Summary::silent(log_v)
        } else {
            route.summary(v, log_v, n, label, out_degree).unwrap_or_else(|| {
                enumerate(v, log_v, n, label, out_degree, route, Cluster::MACHINE)
            })
        };
        let layout_bytes = match &layout {
            Some(PlanLayout::Table(t)) => (t.len() * std::mem::size_of::<u32>()) as u64,
            _ => 0,
        };
        StepPlan {
            route: shared,
            out_degree,
            v,
            log_v,
            n,
            metrics,
            total_data,
            fault,
            min_locality,
            layout,
            approx_bytes: std::mem::size_of::<StepPlan>() as u64 + layout_bytes,
        }
    }

    /// Compiles a **captured route**: the exact message sequence of one
    /// recorded dynamic execution of a superstep, as per-VP prefix offsets
    /// (`v + 1` entries) over a flat `(dst, is_data)` slot table in send
    /// order. The table is wrapped in an ordinary route closure and pushed
    /// through [`StepPlan::compile`], so a captured plan gets the same
    /// analytic metrics, cluster proof and direct-write scatter as a
    /// declared one. Its replay checks every send against the table before
    /// writing it, so a stale capture (the program's dynamic pattern
    /// changed) surfaces as a [`ModelError::PlanMismatch`].
    pub(crate) fn compile_captured(
        v: usize,
        log_v: u32,
        n: usize,
        label: u32,
        offsets: Vec<u32>,
        slots: Vec<(u32, bool)>,
    ) -> StepPlan {
        debug_assert_eq!(offsets.len(), v + 1);
        debug_assert_eq!(*offsets.last().unwrap_or(&0) as usize, slots.len());
        // The captured tables live on in the route closure below; account
        // them into the plan's resident size before they are moved.
        let table_bytes = (offsets.len() * std::mem::size_of::<u32>()
            + slots.len() * std::mem::size_of::<(u32, bool)>()) as u64;
        let out_degree =
            (0..v).map(|vp| (offsets[vp + 1] - offsets[vp]) as usize).max().unwrap_or(0);
        let route = move |ctx: &Ctx, k: usize| {
            let lo = offsets[ctx.vp] as usize;
            if lo + k < offsets[ctx.vp + 1] as usize {
                let (dst, data) = slots[lo + k];
                if data {
                    Route::Data(dst as usize)
                } else {
                    Route::Dummy(dst as usize)
                }
            } else {
                Route::End
            }
        };
        let route = std::sync::Arc::new(route);
        let mut plan = StepPlan::compile(v, log_v, n, label, out_degree, &*route, route.clone());
        plan.approx_bytes += table_bytes;
        plan
    }

    /// The compile-time route violation, if any.
    #[inline]
    pub fn fault(&self) -> Option<&ModelError> {
        self.fault.as_ref()
    }

    /// Approximate resident bytes of this compiled plan (struct, layout
    /// table, captured route tables) — what the server's plan cache budgets
    /// against.
    #[inline]
    pub fn approx_bytes(&self) -> u64 {
        self.approx_bytes
    }

    /// Declared payload messages per execution.
    #[inline]
    pub fn total_data(&self) -> u64 {
        self.total_data
    }

    /// The precomputed analytic metrics of the declared multiset.
    #[inline]
    pub fn metrics(&self) -> &StepMetrics {
        &self.metrics
    }

    /// The per-destination payload layout summary, if compile detected one
    /// ([`PlanLayout::Uniform`] always, an explicit table only for periods
    /// up to [`LAYOUT_TABLE_MAX_V`]). `None` means the executors fall back
    /// to the `StepPlan::count_data` enumeration pass.
    #[inline]
    pub fn layout(&self) -> Option<&PlanLayout> {
        self.layout.as_ref()
    }

    /// Whether every payload of this step stays inside its source's shard
    /// when `M(v)` is folded onto `2^log_shards` contiguous shards — i.e.
    /// the step is *fusible*: it can execute without any cross-shard
    /// synchronization.
    #[inline]
    pub fn shard_local(&self, log_shards: u32) -> bool {
        self.min_locality >= log_shards
    }

    /// The payloads each VP declares, when its route value states one
    /// count for every VP; `None` for a route that must be enumerated.
    #[inline]
    pub(crate) fn payloads_per_vp(&self) -> Option<u64> {
        self.route.payloads_per_vp(self.out_degree)
    }

    /// The size of the clusters this plan's route is stated per
    /// ([`InCluster`]), if it is.
    #[inline]
    pub(crate) fn cluster_size(&self) -> Option<usize> {
        self.route.cluster_size(self.v)
    }

    /// Tallies the payload messages the VPs in `vps` declare into `counts`,
    /// one entry per destination of the same range (`counts[d − vps.start]`;
    /// the scatter's counting pass — one route call per declared slot, no
    /// staging, no per-message metric work). The range is the machine, or
    /// the shard of a step whose payloads compile proved shard-local. A
    /// route dense enough to overflow a per-destination `u32` count is a
    /// [`ModelError`], never a silent cap (a capped count would corrupt the
    /// prefix-sum offsets the unsafe scatter trusts).
    pub(crate) fn count_data(
        &self,
        vps: std::ops::Range<usize>,
        counts: &mut [u32],
    ) -> Result<(), ModelError> {
        debug_assert_eq!(counts.len(), vps.len());
        let lo = vps.start;
        for vp in vps {
            let ctx = Ctx { vp, v: self.v, log_v: self.log_v, n: self.n };
            for k in 0..self.out_degree {
                match self.route.slot(&ctx, k) {
                    // Compile proved d in the range.
                    Route::Data(d) => crate::mailbox::bump_count(&mut counts[d - lo])?,
                    Route::End => break,
                    Route::Dummy(_) | Route::Skip => {}
                }
            }
        }
        Ok(())
    }

    /// Calls `f(src, dst, is_data)` for every declared message of the VPs
    /// in `vps`, in send order (ascending VP, then slot index) — the exact
    /// order the dynamic engine observes and logs.
    pub(crate) fn for_each_message(
        &self,
        vps: std::ops::Range<usize>,
        mut f: impl FnMut(usize, usize, bool),
    ) {
        for vp in vps {
            let ctx = Ctx { vp, v: self.v, log_v: self.log_v, n: self.n };
            for k in 0..self.out_degree {
                match self.route.slot(&ctx, k) {
                    Route::Data(d) => f(vp, d, true),
                    Route::Dummy(d) => f(vp, d, false),
                    Route::Skip => {}
                    Route::End => break,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles `route` on `M(v)` with input size `v`.
    fn compile(
        v: usize,
        label: u32,
        out_degree: usize,
        route: impl Fn(&Ctx, usize) -> Route + Send + Sync + 'static,
    ) -> StepPlan {
        compile_value(v, label, out_degree, route)
    }

    /// [`compile`] for any declared route, route values included.
    fn compile_value(
        v: usize,
        label: u32,
        out_degree: usize,
        route: impl DeclaredRoute + Send + Sync + 'static,
    ) -> StepPlan {
        let route = std::sync::Arc::new(route);
        StepPlan::compile(v, v.ilog2(), v, label, out_degree, &*route, route.clone())
    }

    fn route_exchange(d: usize) -> impl Fn(&Ctx, usize) -> Route + Send + Sync + 'static {
        move |ctx: &Ctx, _k| Route::Data(ctx.vp ^ d)
    }

    #[test]
    fn compile_proves_cluster_constraint() {
        // vp ^ 4 crosses the bisection of v = 8: legal in a 0-superstep,
        // a compile-time fault in a 1-superstep.
        let ok = compile(8, 0, 1, route_exchange(4));
        assert!(ok.fault().is_none());
        assert_eq!(ok.total_data(), 8);
        let bad = compile(8, 1, 1, route_exchange(4));
        assert!(matches!(
            bad.fault(),
            Some(ModelError::ClusterViolation { label: 1, src: 0, dst: 4 })
        ));
        let oob = compile(8, 0, 1, |_, _| Route::Data(8));
        assert!(matches!(oob.fault(), Some(ModelError::BadParameter { .. })));
    }

    #[test]
    fn compile_metrics_count_dummies_and_skips() {
        // VP 0 sends one payload to 1 and one dummy to 2; VP 3 a payload to
        // 2 after a hole, then ends (its last slot is never read); everyone
        // else idles.
        let plan = compile(4, 0, 4, |ctx, k| match (ctx.vp, k) {
            (0, 0) => Route::Data(1),
            (0, 1) => Route::Dummy(2),
            (3, 1) => Route::Data(2),
            (3, 2) => Route::End,
            (3, 3) => Route::Data(usize::MAX),
            _ => Route::Skip,
        });
        assert!(plan.fault().is_none());
        assert_eq!(plan.total_data(), 2);
        assert_eq!(plan.metrics().total(), 3, "dummy counts in metrics");
        let mut counts = vec![0u32; 4];
        plan.count_data(0..4, &mut counts).unwrap();
        assert_eq!(counts, vec![0, 1, 1, 0], "dummy takes no payload slot");
        let mut upper = vec![0u32; 2];
        plan.count_data(2..4, &mut upper).unwrap();
        assert_eq!(upper, vec![1, 0], "a source range counts its own destinations");
        let mut seen = Vec::new();
        plan.for_each_message(0..4, |s, d, data| seen.push((s, d, data)));
        assert_eq!(seen, vec![(0, 1, true), (0, 2, false), (3, 2, true)]);
    }

    #[test]
    fn compiled_metrics_with_dummies_match_streamed_counters() {
        use nob_core::metrics::{StepMetricsBuilder, SuperstepRecord, TraceBuilder};
        // Per VP: a payload across the top bisection, a dummy to the
        // neighbour (top differing bit 0), a self-send, a skipped slot, and
        // on every third VP a dummy to VP 0.
        let route = |ctx: &Ctx, k: usize| match k {
            0 => Route::Data(ctx.vp ^ (ctx.v >> 1)),
            1 => Route::Dummy(ctx.vp ^ 1),
            2 => Route::Data(ctx.vp),
            3 => Route::Skip,
            _ if ctx.vp.is_multiple_of(3) => Route::Dummy(0),
            _ => Route::End,
        };
        for log_v in [1u32, 2, 5] {
            let v = 1usize << log_v;
            let plan = compile(v, 0, 5, route);
            assert!(plan.fault().is_none());
            // The dynamic path's metering of the same messages, and the
            // reference record of their multiset.
            let (mut streamed, mut edges) = (StepMetricsBuilder::new(log_v), Vec::new());
            plan.for_each_message(0..v, |s, d, _| {
                streamed.record(s, d);
                edges.push((s, d, 1));
            });
            let mut trace = TraceBuilder::new(v, v, 1);
            streamed.finish_into(0, &mut trace);
            let full = SuperstepRecord::from_counted_edges(0, log_v, &edges);
            assert_eq!(trace.snapshot().steps, std::slice::from_ref(&full), "v {v}");
            let m = plan.metrics();
            assert_eq!(m.h_by_fold(), &full.h_by_fold[..], "v {v}");
            assert_eq!(m.total(), full.total_msgs, "v {v}");
        }
    }

    #[test]
    fn compile_detects_uniform_and_table_layouts() {
        // Butterfly exchange: exactly one payload per destination → Uniform(1).
        let fft = compile(8, 0, 1, route_exchange(1));
        assert!(matches!(fft.layout(), Some(PlanLayout::Uniform(1))));
        // All-idle step → Uniform(0).
        let idle = compile(8, 0, 1, |_, _| Route::End);
        assert!(matches!(idle.layout(), Some(PlanLayout::Uniform(0))));
        assert_eq!(idle.min_locality, 3, "no payloads: locality is log v");
        // Skewed fan-in: VP 0 receives everything → explicit table (v small).
        let fan = compile(4, 0, 1, |_, _| Route::Data(0));
        match fan.layout() {
            Some(PlanLayout::Table(t)) => assert_eq!(&t[..], &[0, 4, 4, 4, 4]),
            other => panic!("expected table layout, got {other:?}"),
        }
        assert_eq!(fan.layout().map(|l| l.count(0)), Some(4));
        assert_eq!(fan.layout().map(|l| l.count(3)), Some(0));
        // A faulted compile never advertises a layout (or locality); it is
        // only trivially "local" at the degenerate one-shard fold.
        let bad = compile(8, 1, 1, route_exchange(4));
        assert!(bad.layout().is_none());
        assert!(!bad.shard_local(1));
    }

    #[test]
    fn a_step_without_message_slots_compiles_without_a_scan() {
        // Not even the route is consulted: this one would fault if it were.
        let shortcut = compile(8, 2, 0, |_, _| Route::Data(usize::MAX));
        // The same step through the enumeration.
        let scanned = compile(8, 2, 1, |_, _| Route::End);
        assert!(shortcut.fault().is_none());
        assert!(matches!(shortcut.layout(), Some(PlanLayout::Uniform(0))));
        assert_eq!(shortcut.total_data(), 0);
        assert_eq!(shortcut.metrics(), scanned.metrics());
        assert_eq!(shortcut.metrics().h_by_fold(), [0, 0, 0]);
        assert_eq!(shortcut.min_locality, scanned.min_locality);
        assert_eq!(shortcut.approx_bytes(), scanned.approx_bytes());
    }

    #[test]
    fn xor_plans_in_closed_form_equal_their_enumeration() {
        for log_v in 1u32..=12 {
            let v = 1usize << log_v;
            // Every mask below 2v — the ones out of range fault at VP 0 both
            // ways — up to v = 2^9. Past it, where that many enumerations
            // take minutes in a debug build, the masks 2^b − 1, 2^b and 2^b
            // + 1 (in range and out of it) and a spread of others.
            let masks: Vec<usize> = if log_v <= 9 {
                (0..2 * v).collect()
            } else {
                let forms = (0..=log_v).flat_map(|b| [(1 << b) - 1, 1 << b, (1 << b) + 1]);
                forms.chain((1..16).map(|i| i * 0x9e37 % (2 * v))).collect()
            };
            for mask in masks {
                let walk = move |ctx: &Ctx, k: usize| {
                    if k == 0 {
                        Route::Data(ctx.vp ^ mask)
                    } else {
                        Route::End
                    }
                };
                for label in 0..log_v {
                    for out_degree in 1..=3 {
                        let closed = compile_value(v, label, out_degree, Xor(mask));
                        let walked = compile(v, label, out_degree, walk);
                        let what =
                            format!("v {v} mask {mask} label {label} out_degree {out_degree}");
                        assert_eq!(closed.metrics(), walked.metrics(), "{what}");
                        assert_eq!(closed.total_data(), walked.total_data(), "{what}");
                        assert_eq!(
                            format!("{:?}", closed.layout()),
                            format!("{:?}", walked.layout()),
                            "{what}"
                        );
                        for s in 0..=log_v {
                            assert_eq!(
                                closed.shard_local(s),
                                walked.shard_local(s),
                                "{what} s {s}"
                            );
                        }
                        assert_eq!(closed.fault(), walked.fault(), "{what}");
                        assert_eq!(closed.approx_bytes(), walked.approx_bytes(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn in_cluster_plans_in_closed_form_equal_their_enumeration() {
        use crate::program::Program;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        for log_v in 1u32..=10 {
            let v = 1usize << log_v;
            for label in 0..log_v {
                let c = v >> label;
                for dummies in 0..=2 {
                    for trial in 0..3 {
                        // A random table per cluster offset: payloads and
                        // f's own dummies inside the cluster, holes, early
                        // ends — and in the last trial one offset ≥ c, the
                        // one fault a value can declare.
                        let slots = 1 + next() % 3;
                        let mut table: Vec<Route> = (0..c * slots)
                            .map(|_| match next() % 16 {
                                0 => Route::End,
                                1 | 2 => Route::Skip,
                                3 => Route::Dummy(next() % c),
                                _ => Route::Data(next() % c),
                            })
                            .collect();
                        if trial == 2 {
                            let at = next() % table.len();
                            table[at] = Route::Data(c + next() % v);
                        }
                        let table: std::sync::Arc<[Route]> = table.into();
                        let value =
                            InCluster::new(c, slots, dummies, move |off, k| table[off * slots + k]);
                        let walk = {
                            let value = value.clone();
                            move |ctx: &Ctx, k: usize| value.slot(ctx, k)
                        };
                        // A step label above the value's makes every
                        // message that leaves a finer cluster a fault too;
                        // one below it lets an offset ≥ c escape unfaulted.
                        for step_label in [label / 2, label, log_v - 1] {
                            for out_degree in [slots + dummies, slots + dummies + 1, 1] {
                                let what = format!(
                                    "v {v} label {label}/{step_label} dummies {dummies} trial {trial} \
                                     out_degree {out_degree}"
                                );
                                let closed =
                                    compile_value(v, step_label, out_degree, value.clone());
                                let walked = compile(v, step_label, out_degree, walk.clone());
                                assert_eq!(closed.metrics(), walked.metrics(), "{what}");
                                assert_eq!(closed.total_data(), walked.total_data(), "{what}");
                                assert_eq!(
                                    format!("{:?}", closed.layout()),
                                    format!("{:?}", walked.layout()),
                                    "{what}"
                                );
                                assert_eq!(closed.min_locality, walked.min_locality, "{what}");
                                for s in 0..=log_v {
                                    assert_eq!(
                                        closed.shard_local(s),
                                        walked.shard_local(s),
                                        "{what} s {s}"
                                    );
                                }
                                assert_eq!(closed.fault(), walked.fault(), "{what}");
                                assert_eq!(closed.approx_bytes(), walked.approx_bytes(), "{what}");
                                assert_eq!(
                                    closed.payloads_per_vp(),
                                    walked.payloads_per_vp(),
                                    "{what}"
                                );
                                // The per-shard send totals: none walked or
                                // one cluster walked, against every VP.
                                let mut programs =
                                    (Program::<u8, u8>::new(v, v), Program::<u8, u8>::new(v, v));
                                programs.0.step_oblivious(
                                    step_label,
                                    "closed",
                                    out_degree,
                                    value.clone(),
                                    |_, _, _, _| {},
                                );
                                programs.1.step_oblivious(
                                    step_label,
                                    "walked",
                                    out_degree,
                                    walk.clone(),
                                    |_, _, _, _| {},
                                );
                                for w in [2, 4, 8].into_iter().filter(|&w| w <= v) {
                                    let (a, b) =
                                        (programs.0.send_totals(w), programs.1.send_totals(w));
                                    assert_eq!(a, b, "{what} width {w}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Gather to / scatter from the leader of every `m`-segment — the
    /// Columnsort base case.
    fn route_gather(m: usize) -> impl Fn(&Ctx, usize) -> Route + Send + Sync + 'static {
        move |ctx: &Ctx, _k| match ctx.vp % m {
            0 => Route::End,
            off => Route::Data(ctx.vp - off),
        }
    }

    fn route_scatter(m: usize) -> impl Fn(&Ctx, usize) -> Route + Send + Sync + 'static {
        move |ctx: &Ctx, k| match ctx.vp % m {
            0 => Route::Data(ctx.vp + k + 1),
            _ => Route::End,
        }
    }

    #[test]
    fn non_uniform_layouts_are_stored_at_their_period() {
        let table_of = |plan: &StepPlan| match plan.layout() {
            Some(PlanLayout::Table(t)) => t.to_vec(),
            other => panic!("expected a table layout, got {other:?}"),
        };
        // Segments of 4 on v = 16: the counts repeat every 4 destinations,
        // so 5 table entries describe all 16.
        let gather = compile(16, 2, 1, route_gather(4));
        let scatter = compile(16, 2, 3, route_scatter(4));
        assert_eq!(table_of(&gather), [0, 3, 3, 3, 3]);
        assert_eq!(table_of(&scatter), [0, 0, 1, 2, 3]);
        for d in 0..16 {
            let leader = d % 4 == 0;
            assert_eq!(gather.layout().map(|l| l.count(d)), Some(if leader { 3 } else { 0 }));
            assert_eq!(scatter.layout().map(|l| l.count(d)), Some(u32::from(!leader)));
        }
        assert_eq!(gather.approx_bytes(), std::mem::size_of::<StepPlan>() as u64 + 5 * 4);
        // A fan-in with no shorter period keeps all v + 1 entries.
        let fan = compile(16, 0, 1, |_, _| Route::Data(5));
        let table = table_of(&fan);
        assert_eq!(table.len(), 17);
        assert_eq!((table[5], table[6]), (0, 16));
        assert_eq!(fan.layout().map(|l| (l.count(5), l.count(13))), Some((16, 0)));
        // The cap is on the period, not on v: past it the periodic steps
        // keep their small table and only the period-v fan-in goes without.
        let v = 2 * LAYOUT_TABLE_MAX_V;
        let log_v = v.ilog2();
        let wide = compile(v, log_v - 5, 1, route_gather(32));
        assert_eq!(table_of(&wide).len(), 33);
        assert_eq!(wide.layout().map(|l| (l.count(v - 32), l.count(v - 1))), Some((31, 0)));
        let fan = compile(v, 0, 1, |_, _| Route::Data(0));
        assert!(fan.fault().is_none() && fan.layout().is_none());
    }

    #[test]
    fn min_locality_tracks_payload_cluster_depth() {
        // vp ^ 1 stays inside every 2-VP cluster: locality log_v - 1.
        let near = compile(8, 0, 1, route_exchange(1));
        assert_eq!(near.min_locality, 2);
        assert!(near.shard_local(2) && !near.shard_local(3));
        // vp ^ 4 crosses the bisection: locality 0, never shard-local.
        let far = compile(8, 0, 1, route_exchange(4));
        assert_eq!(far.min_locality, 0);
        assert!(far.shard_local(0) && !far.shard_local(1));
        // Self-sends and dummies don't narrow locality: a dummy across the
        // bisection carries no payload across it, so the step stays fusible.
        let dummy = compile(8, 0, 2, |ctx, k| match k {
            0 => Route::Data(ctx.vp),
            _ => Route::Dummy(ctx.vp ^ 4),
        });
        assert_eq!(dummy.min_locality, 3);
        assert!(dummy.shard_local(3));
    }

    #[test]
    fn captured_routes_compile_like_declared_ones() {
        // Capture of a dynamic run on v = 4: VP 0 sent to 1 then a dummy to
        // 0; VP 2 sent to 3; VPs 1 and 3 were silent.
        let offsets = vec![0u32, 2, 2, 3, 3];
        let slots = vec![(1u32, true), (0u32, false), (3u32, true)];
        let plan = StepPlan::compile_captured(4, 2, 4, 1, offsets, slots);
        assert!(plan.fault().is_none());
        assert_eq!(plan.total_data(), 2);
        assert_eq!(plan.out_degree, 2);
        let mut seen = Vec::new();
        plan.for_each_message(0..4, |s, d, data| seen.push((s, d, data)));
        assert_eq!(seen, vec![(0, 1, true), (0, 0, false), (2, 3, true)]);
        assert_eq!(plan.min_locality, 1, "both payloads stay in their pair");
        assert!(plan.shard_local(1));
        // A captured route that violates its superstep's cluster label is a
        // compile fault, exactly like a mis-declared oblivious route.
        let bad = StepPlan::compile_captured(4, 2, 4, 1, vec![0, 1, 1, 1, 1], vec![(2, true)]);
        assert!(matches!(bad.fault(), Some(ModelError::ClusterViolation { .. })));
    }
}
