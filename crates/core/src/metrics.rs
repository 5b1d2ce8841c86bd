//! Communication metrics: per-superstep degrees, the `F^i`/`S^i` aggregates,
//! communication complexity `H` (Eq. 1) and communication time `D` (Eq. 2).
//!
//! A [`CommTrace`] is the record of one execution of a *static* algorithm on
//! the specification machine `M(v)`. Because the communication pattern of a
//! static algorithm depends only on the input size, a single trace at full
//! granularity determines the metrics of **every** folding `M(2^j)`: a message
//! `u → w` is external at fold `2^j` iff the top `j` index bits of `u` and `w`
//! differ ([`crate::folding::external_at_fold`]). Each [`SuperstepRecord`]
//! therefore stores the superstep degree `h^s(n, 2^j)` for all folds `j` at
//! once, and [`CommTrace::fold`] assembles the cumulative degrees
//! `F^i(n, 2^j)` analytically.

use crate::error::ModelError;
use crate::model::{log2_exact, DbspMachine};
use serde::{Deserialize, Serialize};

/// Metrics of a single superstep, for every folding of the machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SuperstepRecord {
    /// The superstep label `i` (it is an `i`-superstep).
    pub label: u32,
    /// `h_by_fold[j-1]` is the degree `h^s(n, 2^j)` of this superstep when the
    /// algorithm is folded onto `2^j` processors, for `1 ≤ j ≤ log v`:
    /// the maximum over processors of the larger of (messages sent, messages
    /// received), counting only messages that cross processor boundaries.
    pub h_by_fold: Vec<u64>,
    /// Total number of (point-to-point, constant-size) messages exchanged.
    pub total_msgs: u64,
}

impl SuperstepRecord {
    /// Builds the record of a superstep from streaming [`DegreeCounters`]
    /// filled during the engine's send phase. Equivalent to
    /// [`SuperstepRecord::from_counted_edges`] over the same message multiset
    /// (the property tests assert bit-for-bit equality), but costs `O(log v)`
    /// here because the per-fold maxima were maintained incrementally.
    pub fn from_degree_counters(label: u32, counters: &DegreeCounters) -> Self {
        SuperstepRecord {
            label,
            h_by_fold: (1..=counters.levels()).map(|j| counters.level_max(j)).collect(),
            total_msgs: counters.total(),
        }
    }

    /// Builds the record of a superstep from its message multiset, given as
    /// counted edges `(src VP, dst VP, multiplicity)`.
    ///
    /// Cost: `O(|edges| · log v + v)` time, `O(v)` scratch.
    pub fn from_counted_edges(label: u32, log_v: u32, edges: &[(usize, usize, u64)]) -> Self {
        let v = 1usize << log_v;
        let mut h_by_fold = Vec::with_capacity(log_v as usize);
        let mut out = vec![0u64; v];
        let mut inc = vec![0u64; v];
        let mut total = 0u64;
        for &(_, _, c) in edges {
            total += c;
        }
        for j in 1..=log_v {
            let shift = log_v - j;
            let procs = 1usize << j;
            out[..procs].fill(0);
            inc[..procs].fill(0);
            for &(src, dst, c) in edges {
                let ps = src >> shift;
                let pd = dst >> shift;
                if ps != pd {
                    out[ps] += c;
                    inc[pd] += c;
                }
            }
            let h = (0..procs).map(|k| out[k].max(inc[k])).max().unwrap_or(0);
            h_by_fold.push(h);
        }
        SuperstepRecord { label, h_by_fold, total_msgs: total }
    }

    /// Builds the record from unit-multiplicity messages.
    pub fn from_messages<I>(label: u32, log_v: u32, msgs: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let edges: Vec<(usize, usize, u64)> = msgs.into_iter().map(|(s, d)| (s, d, 1)).collect();
        Self::from_counted_edges(label, log_v, &edges)
    }

    /// The degree `h^s(n, 2^j)` of this superstep at fold `2^j` (`1 ≤ j ≤ log v`).
    ///
    /// For `j ≤ label` the superstep is local after folding, so the degree is 0
    /// (guaranteed by the cluster constraint on messages).
    #[inline]
    pub fn h(&self, j: u32) -> u64 {
        if j == 0 {
            0
        } else {
            self.h_by_fold[(j - 1) as usize]
        }
    }
}

/// Streaming per-fold degree counters: the allocation-free replacement for
/// materializing one `(src, dst, 1)` edge per message and re-scanning the
/// edge list once per fold level.
///
/// One `DegreeCounters` instance is reused across all supersteps of a run.
/// For every fold level `j` (`1 ≤ j ≤ levels`) it maintains per-processor
/// sent/received counts plus a *running maximum* `max_k max(out_k, in_k)`;
/// since counts only grow within a superstep, the running maximum equals the
/// final maximum, so producing a [`SuperstepRecord`] costs `O(levels)` with
/// no scan. Stale counts from previous supersteps are invalidated by an
/// epoch stamp instead of zeroing, so [`DegreeCounters::begin_superstep`] is
/// `O(1)`.
///
/// Per message the work is `O(#levels at which the message is external)`:
/// the externality threshold comes from one `xor`/`leading_zeros`, and a
/// message internal at every tracked level (e.g. a VP sending to itself, or
/// a processor-internal message in a folded run) costs `O(1)`.
///
/// # Shard-local counters
///
/// The sharded executor gives every shard (a contiguous block of
/// `2^(log_v - log_shards)` VPs) a private instance built with
/// [`DegreeCounters::shard_full`] / [`DegreeCounters::shard_folded`]. The
/// tracked levels split at `split = log_shards`:
///
/// * **Fine levels** (`split < j ≤ levels`): a fold-level processor is
///   contained in exactly one shard, so its sent counter is bumped only by
///   the shard owning the source VP ([`DegreeCounters::record`] for
///   shard-internal messages, [`DegreeCounters::record_sent`] for outgoing
///   ones) and its received counter only by the shard owning the
///   destination ([`DegreeCounters::record_received`], called by the
///   receiving shard while draining its incoming lanes). Slot ownership is
///   disjoint across shards, so each shard's running maximum is exact and
///   the global maximum is the max over shards. Only the `2^(j - split)`
///   processors owned by the shard are allocated per level, keeping total
///   slot memory independent of the shard count.
/// * **Coarse levels** (`1 ≤ j ≤ split`): a fold-level processor spans
///   whole shards, so per-shard counts are partial sums — but each shard
///   maps into exactly *one* processor per coarse level, so two scalars per
///   level suffice. [`EpochMerge`] adds them up per processor and takes the
///   maximum once per superstep, replacing the per-message level walk with
///   one `O(shards · log shards)` batch at the barrier.
///
/// With `log_shards = 0` (the serial engine) every level is fine and the
/// layout is identical to the pre-shard counters.
#[derive(Debug, Clone)]
pub struct DegreeCounters {
    /// `log2 v` of the id space messages are expressed in (VP granularity).
    log_v: u32,
    /// Number of fold levels tracked: `log_v` for full-granularity runs,
    /// `log p` for folded runs.
    levels: u32,
    /// Number of coarse levels (`= log_shards`; 0 when not sharded).
    split: u32,
    /// Index of the owning shard (0 when not sharded).
    shard: usize,
    /// Whether messages internal at every tracked level count toward
    /// `total()`. Full-granularity traces count them (a self-send is still a
    /// message); folded traces only count processor-external messages,
    /// matching the paper's folding semantics.
    count_internal: bool,
    /// Flattened fine-level counters; level `j` occupies the
    /// `2^(j - split)` slots starting at `2^(j - split) - 2`, covering the
    /// processors owned by `shard` (all of them when `split = 0`).
    out_cnt: Vec<u64>,
    in_cnt: Vec<u64>,
    out_epoch: Vec<u32>,
    in_epoch: Vec<u32>,
    /// Per-shard scalars for coarse levels `1..=split`: messages external at
    /// that level sent by (resp. received by) this shard's VPs.
    out_coarse: Vec<u64>,
    in_coarse: Vec<u64>,
    /// `max_by_level[j - 1]` = running `max_k max(out_k, in_k)` at fine
    /// level `j` over the slots this instance owns (unused for coarse
    /// levels — [`EpochMerge`] computes those).
    max_by_level: Vec<u64>,
    total: u64,
    epoch: u32,
}

impl DegreeCounters {
    /// Counters for a full-granularity run on `M(2^log_v)`: all `log_v` fold
    /// levels are tracked and internal (self-send) messages count toward the
    /// total, mirroring [`SuperstepRecord::from_counted_edges`].
    pub fn full(log_v: u32) -> Self {
        Self::with_layout(log_v, log_v, 0, 0, true)
    }

    /// Counters for a folded run on `M(2^log_p)` whose messages are given at
    /// VP granularity (`2^log_v` ids): only `log_p` levels are tracked, and
    /// messages internal to a processor are not counted at all.
    pub fn folded(log_v: u32, log_p: u32) -> Self {
        Self::with_levels(log_v, log_p, false)
    }

    /// Shard-local counters for shard `shard` of `2^log_shards` in a
    /// full-granularity run (see the type docs on the fine/coarse split).
    pub fn shard_full(log_v: u32, log_shards: u32, shard: usize) -> Self {
        Self::with_layout(log_v, log_v, log_shards, shard, true)
    }

    /// Shard-local counters for shard `shard` of `2^log_shards` in a run
    /// folded onto `M(2^log_p)`; requires `log_shards ≤ log_p` (a shard
    /// never spans fold-level processors).
    pub fn shard_folded(log_v: u32, log_p: u32, log_shards: u32, shard: usize) -> Self {
        Self::with_layout(log_v, log_p, log_shards, shard, false)
    }

    fn with_levels(log_v: u32, levels: u32, count_internal: bool) -> Self {
        Self::with_layout(log_v, levels, 0, 0, count_internal)
    }

    fn with_layout(
        log_v: u32,
        levels: u32,
        split: u32,
        shard: usize,
        count_internal: bool,
    ) -> Self {
        // allow-panic: constructor contract on engine-internal wiring.
        assert!(levels <= log_v, "cannot track more fold levels than log v");
        assert!(split <= levels, "shards must not outnumber fold-level processors");
        assert!(shard < (1usize << split) || (split == 0 && shard == 0), "shard out of range");
        let slots = (1usize << (levels - split + 1)) - 2;
        DegreeCounters {
            log_v,
            levels,
            split,
            shard,
            count_internal,
            out_cnt: vec![0; slots],
            in_cnt: vec![0; slots],
            out_epoch: vec![0; slots],
            in_epoch: vec![0; slots],
            out_coarse: vec![0; split as usize],
            in_coarse: vec![0; split as usize],
            max_by_level: vec![0; levels as usize],
            total: 0,
            epoch: 0,
        }
    }

    /// Invalidates all counts in `O(1)` (epoch bump); call between
    /// supersteps.
    pub fn begin_superstep(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped (after 2^32 supersteps): hard-reset the stamps to
            // 0, the one epoch never live after `begin_superstep`, so no
            // pre-wrap count can match a later cycle's epoch.
            self.out_epoch.fill(0);
            self.in_epoch.fill(0);
            self.epoch = 1;
        }
        self.max_by_level.fill(0);
        self.out_coarse.fill(0);
        self.in_coarse.fill(0);
        self.total = 0;
    }

    /// Slot index of fine level `j` (`split < j ≤ levels`) for the global
    /// fold-level processor `p_global`, which must be owned by this shard.
    #[inline]
    fn fine_index(&self, j: u32, p_global: usize) -> usize {
        let w = j - self.split;
        ((1usize << w) - 2) + p_global - (self.shard << w)
    }

    /// Records one message `src → dst` (VP-granularity ids) whose endpoints
    /// are both owned by this instance — any message for the serial engine,
    /// shard-internal messages for the sharded one. Dummy messages are
    /// recorded exactly like payload messages — the paper's wiseness device
    /// counts them in every degree metric.
    #[inline]
    pub fn record(&mut self, src: usize, dst: usize) {
        let x = src ^ dst;
        if x == 0 {
            if self.count_internal {
                self.total += 1;
            }
            return;
        }
        // The message is external at fold 2^j iff the top j bits differ,
        // i.e. for all j > common_prefix = log_v - bitlen(x).
        let bitlen = usize::BITS - x.leading_zeros();
        let j_min = (self.log_v - bitlen) + 1;
        if j_min > self.levels {
            if self.count_internal {
                self.total += 1;
            }
            return;
        }
        debug_assert!(
            j_min > self.split,
            "record() is for shard-internal messages; use record_sent/record_received"
        );
        self.total += 1;
        for j in j_min..=self.levels {
            let shift = self.log_v - j;
            let ps = self.fine_index(j, src >> shift);
            let pd = self.fine_index(j, dst >> shift);
            let sent = Self::bump(&mut self.out_cnt, &mut self.out_epoch, ps, self.epoch);
            let recv = Self::bump(&mut self.in_cnt, &mut self.in_epoch, pd, self.epoch);
            let m = &mut self.max_by_level[(j - 1) as usize];
            *m = (*m).max(sent.max(recv));
        }
    }

    /// Records the *send side* of a message leaving this shard (`src` owned
    /// here, `dst` owned by another shard). Counts toward `total()`; the
    /// receiving shard accounts the in-side via
    /// [`DegreeCounters::record_received`].
    #[inline]
    pub fn record_sent(&mut self, src: usize, dst: usize) {
        let x = src ^ dst;
        debug_assert!(x != 0, "a cross-shard message cannot be a self-send");
        let bitlen = usize::BITS - x.leading_zeros();
        let j_min = (self.log_v - bitlen) + 1;
        debug_assert!(
            j_min <= self.split,
            "record_sent() requires a shard-external message"
        );
        self.total += 1;
        for j in j_min..=self.split {
            self.out_coarse[(j - 1) as usize] += 1;
        }
        // A shard-external message is external at every fine level.
        for j in (self.split + 1)..=self.levels {
            let shift = self.log_v - j;
            let ps = self.fine_index(j, src >> shift);
            let sent = Self::bump(&mut self.out_cnt, &mut self.out_epoch, ps, self.epoch);
            let m = &mut self.max_by_level[(j - 1) as usize];
            *m = (*m).max(sent);
        }
    }

    /// Records the *receive side* of a message arriving from another shard
    /// (`dst` owned here). Does **not** count toward `total()` — the sender
    /// already did.
    #[inline]
    pub fn record_received(&mut self, src: usize, dst: usize) {
        let x = src ^ dst;
        debug_assert!(x != 0, "a cross-shard message cannot be a self-send");
        let bitlen = usize::BITS - x.leading_zeros();
        let j_min = (self.log_v - bitlen) + 1;
        debug_assert!(
            j_min <= self.split,
            "record_received() requires a shard-external message"
        );
        for j in j_min..=self.split {
            self.in_coarse[(j - 1) as usize] += 1;
        }
        for j in (self.split + 1)..=self.levels {
            let shift = self.log_v - j;
            let pd = self.fine_index(j, dst >> shift);
            let recv = Self::bump(&mut self.in_cnt, &mut self.in_epoch, pd, self.epoch);
            let m = &mut self.max_by_level[(j - 1) as usize];
            *m = (*m).max(recv);
        }
    }

    #[inline]
    fn bump(cnt: &mut [u64], epoch: &mut [u32], idx: usize, cur: u32) -> u64 {
        if epoch[idx] != cur {
            epoch[idx] = cur;
            cnt[idx] = 0;
        }
        cnt[idx] += 1;
        cnt[idx]
    }

    /// Number of tracked fold levels.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The superstep degree `h^s` at fold `2^j` so far (`1 ≤ j ≤ levels`).
    /// For shard-local counters this is only exact at fine levels
    /// (`j > log_shards`); coarse levels are assembled by [`EpochMerge`].
    #[inline]
    pub fn level_max(&self, j: u32) -> u64 {
        debug_assert!(j > self.split, "coarse levels are only exact after an EpochMerge");
        self.max_by_level[(j - 1) as usize]
    }

    /// Messages recorded this superstep (per the `count_internal` policy).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Precomputed metrics of one *oblivious* superstep: the analytic record of
/// a message multiset that is a static function of the VP index.
///
/// Communication-plan layers compile these once per program with a
/// [`StepMetricsBuilder`], whose result is **bit-for-bit identical** to what
/// the engine's streamed [`DegreeCounters`] would produce for the same
/// multiset (dummy messages included), and then emit a superstep record in
/// `O(log v)` per run via [`TraceBuilder::push_precomputed`], instead of
/// paying the per-message `O(log v)` counter walk on every execution.
///
/// One instance serves **every** granularity at once: a folded run on
/// `M(2^L)` reads the first `L` degree levels (identical, level by level,
/// to what folded counters would have accumulated) and the
/// externality-prefix total `ext(L)` (folded traces count only messages
/// external at fold `2^L`, exactly the `count_internal = false` policy of
/// [`DegreeCounters::folded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepMetrics {
    /// Fold levels covered (`log v` of the machine the step was declared on).
    levels: u32,
    /// `h_by_fold[j-1]` = superstep degree at fold `2^j`, `1 ≤ j ≤ levels`.
    h_by_fold: Vec<u64>,
    /// `ext_prefix[j-1]` = number of declared messages external at fold
    /// `2^j` (monotone non-decreasing in `j`).
    ext_prefix: Vec<u64>,
    /// All declared messages, internal ones (self-sends) included.
    total: u64,
}

/// Accumulator for [`StepMetrics`]: feed every declared message once (in
/// any order), then [`StepMetricsBuilder::finish`].
///
/// A message is external at fold `2^j` exactly for `j ≥ j_min`, its *first
/// external level*. Instead of walking those levels per message (what the
/// streamed [`DegreeCounters`] must do, because the engine needs every
/// level's running maximum after each superstep), `record` only notes the
/// two ends of that range — the per-VP counts (level `log v`, where every
/// non-self message is external) and one count at the node of the fold tree
/// where the message stops being external — and `finish` recovers every
/// level in one bottom-up `O(v)` pass: a processor's external traffic one
/// level up is its two children's, minus the traffic between the two.
///
/// That subtraction needs one array, not one per direction. The messages
/// that first become external at level `j` of processor `l` are exactly the
/// ones exchanged with its sibling `l ^ 1`, so "received first at `l`"
/// equals "sent first at `l ^ 1`", and both are halves of one quantity: the
/// traffic whose *lowest common fold-tree node* is their parent. `cross`
/// holds that per node, in heap order — entry `2^d + q` is processor `q` of
/// fold `2^d` (`0 ≤ d < log v`; entry 0 is unused) — and `finish` subtracts
/// it from the merged sent and the merged received count alike. Scratch is
/// `3·v` words and `record` makes three scattered increments.
#[derive(Debug)]
pub struct StepMetricsBuilder {
    log_v: u32,
    /// Non-self messages sent / received per VP.
    sent: Vec<u64>,
    recv: Vec<u64>,
    /// Messages per lowest common fold-tree node, heap-indexed (see above).
    cross: Vec<u64>,
    total: u64,
}

impl StepMetricsBuilder {
    /// An accumulator for a machine of `2^log_v` VPs (`log_v ≥ 1`).
    pub fn new(log_v: u32) -> Self {
        let v = 1usize << log_v;
        let zeros = || vec![0; v];
        StepMetricsBuilder { log_v, sent: zeros(), recv: zeros(), cross: zeros(), total: 0 }
    }

    /// Records one declared message `src → dst` (data or dummy — the degree
    /// metrics never distinguish them); both ids must be below `2^log_v`.
    #[inline]
    pub fn record(&mut self, src: usize, dst: usize) {
        self.total += 1;
        let x = src ^ dst;
        if x == 0 {
            return;
        }
        // The top differing bit sits `shift` places up (DegreeCounters'
        // threshold arithmetic), so the two ids share their top
        // `log_v - shift - 1` bits: leaf `v + src` of the heap-ordered fold
        // tree, lifted `shift + 1` levels, is their lowest common node.
        let up = x.ilog2() + 1;
        self.sent[src] += 1;
        self.recv[dst] += 1;
        self.cross[((1usize << self.log_v) | src) >> up] += 1;
    }

    /// Seals the accumulated multiset into immutable [`StepMetrics`].
    pub fn finish(self) -> StepMetrics {
        let StepMetricsBuilder { log_v, mut sent, mut recv, cross, total } = self;
        let mut h_by_fold = vec![0; log_v as usize];
        let mut ext_prefix = vec![0; log_v as usize];
        // Invariant: entering level j, `sent[p]` / `recv[p]` (p < 2^j) count
        // the messages processor p of fold 2^j exchanges with other
        // processors of that fold.
        for j in (1..=log_v).rev() {
            let half = 1usize << (j - 1);
            let (mut h, mut ext) = (0, 0);
            for p in 0..half {
                let (l, r) = (2 * p, 2 * p + 1);
                h = h.max(sent[l]).max(recv[l]).max(sent[r]).max(recv[r]);
                ext += sent[l] + sent[r];
                // Siblings merge into processor p of fold 2^(j-1); the
                // traffic between them is internal to it, in both counts.
                let between = cross[half + p];
                sent[p] = sent[l] + sent[r] - between;
                recv[p] = recv[l] + recv[r] - between;
            }
            h_by_fold[(j - 1) as usize] = h;
            ext_prefix[(j - 1) as usize] = ext;
        }
        StepMetrics { levels: log_v, h_by_fold, ext_prefix, total }
    }
}

impl StepMetrics {
    /// The metrics of a superstep that sends nothing, on a machine of
    /// `2^log_v` VPs — what a [`StepMetricsBuilder`] fed no message
    /// finishes to, without its `O(v)` accumulators.
    pub fn silent(log_v: u32) -> Self {
        let zeros = vec![0; log_v as usize];
        StepMetrics { levels: log_v, h_by_fold: zeros.clone(), ext_prefix: zeros, total: 0 }
    }

    /// The metrics of a butterfly exchange on `2^log_v` VPs — every VP sends
    /// one message to its partner, and partners share their top `prefix ≤
    /// log_v` bits — in `O(log v)`, without enumerating it: a processor of
    /// fold `2^j > 2^prefix` sends and receives all `v / 2^j` of its VPs'
    /// messages across its boundary, and one of a coarser fold none. What a
    /// [`StepMetricsBuilder`] fed those `v` messages finishes to.
    pub fn exchange(log_v: u32, prefix: u32) -> Self {
        let v = 1u64 << log_v;
        StepMetrics {
            levels: log_v,
            h_by_fold: (1..=log_v).map(|j| if j > prefix { v >> j } else { 0 }).collect(),
            ext_prefix: (1..=log_v).map(|j| if j > prefix { v } else { 0 }).collect(),
            total: v,
        }
    }

    /// Fold levels covered.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The degree vector for a trace of granularity `2^levels`
    /// (`1 ≤ levels ≤ self.levels()`): `h(2^1) … h(2^levels)`.
    #[inline]
    pub fn h_prefix(&self, levels: u32) -> &[u64] {
        &self.h_by_fold[..levels as usize]
    }

    /// The message total a trace at granularity `2^levels` records for this
    /// superstep: every message when `count_internal` (full-granularity
    /// traces), otherwise only messages external at fold `2^levels` (folded
    /// traces, cf. [`DegreeCounters::folded`]).
    #[inline]
    pub fn total_at(&self, levels: u32, count_internal: bool) -> u64 {
        if count_internal {
            self.total
        } else {
            self.ext_prefix[(levels - 1) as usize]
        }
    }
}

/// Combines the shard-local [`DegreeCounters`] of one superstep into the
/// global per-fold degrees — the barrier-time half of the sharded metric
/// pipeline for *dynamic* supersteps. Planned (oblivious) supersteps never
/// merge at all: their record is the plan's precomputed [`StepMetrics`],
/// pushed by the coordinator via [`TraceBuilder::push_precomputed`] during
/// its own exec phase — overlapped with the other workers' execution, with
/// no merge barrier behind it.
///
/// Fine-level maxima are exact per shard (disjoint slot ownership), so the
/// merge is a plain `max` per level. Coarse levels are reassembled from the
/// per-shard scalars: shard `w` maps into processor `w >> (log_shards - j)`
/// at level `j`, its scalars are added there, and the processor maximum is
/// taken once in [`EpochMerge::finish`]. One instance is allocated per run
/// and reused across supersteps (allocation-free in steady state).
#[derive(Debug)]
pub struct EpochMerge {
    levels: u32,
    split: u32,
    /// Flattened coarse sums; level `j` occupies `2^j` slots at `2^j - 2`.
    out_sum: Vec<u64>,
    in_sum: Vec<u64>,
    max_by_level: Vec<u64>,
    total: u64,
}

impl EpochMerge {
    /// A merger for `2^log_shards` shards tracking `levels` fold levels.
    pub fn new(levels: u32, log_shards: u32) -> Self {
        // allow-panic: constructor contract on engine-internal wiring.
        assert!(log_shards <= levels, "shards must not outnumber fold-level processors");
        let coarse_slots = (1usize << (log_shards + 1)) - 2;
        EpochMerge {
            levels,
            split: log_shards,
            out_sum: vec![0; coarse_slots],
            in_sum: vec![0; coarse_slots],
            max_by_level: vec![0; levels as usize],
            total: 0,
        }
    }

    /// Resets the merge state; call once per superstep before
    /// [`EpochMerge::add_shard`].
    pub fn begin_superstep(&mut self) {
        self.out_sum.fill(0);
        self.in_sum.fill(0);
        self.max_by_level.fill(0);
        self.total = 0;
    }

    /// Folds shard `shard`'s counters for the current superstep into the
    /// merge.
    pub fn add_shard(&mut self, shard: usize, c: &DegreeCounters) {
        debug_assert_eq!(c.levels, self.levels, "level count mismatch");
        debug_assert_eq!(c.split, self.split, "shard-split mismatch");
        debug_assert_eq!(c.shard, shard, "counters added under the wrong shard id");
        self.total += c.total;
        for j in (self.split + 1)..=self.levels {
            let m = &mut self.max_by_level[(j - 1) as usize];
            *m = (*m).max(c.max_by_level[(j - 1) as usize]);
        }
        for j in 1..=self.split {
            let proc = shard >> (self.split - j);
            let base = (1usize << j) - 2;
            self.out_sum[base + proc] += c.out_coarse[(j - 1) as usize];
            self.in_sum[base + proc] += c.in_coarse[(j - 1) as usize];
        }
    }

    /// Computes the coarse-level maxima from the accumulated sums; call
    /// after the last [`EpochMerge::add_shard`] of the superstep.
    pub fn finish(&mut self) {
        for j in 1..=self.split {
            let base = (1usize << j) - 2;
            let procs = 1usize << j;
            self.max_by_level[(j - 1) as usize] = (0..procs)
                .map(|k| self.out_sum[base + k].max(self.in_sum[base + k]))
                .max()
                .unwrap_or(0);
        }
    }

    /// The merged superstep degree `h^s` at fold `2^j` (`1 ≤ j ≤ levels`);
    /// valid after [`EpochMerge::finish`].
    #[inline]
    pub fn level_max(&self, j: u32) -> u64 {
        self.max_by_level[(j - 1) as usize]
    }

    /// Merged message total of the superstep.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of tracked fold levels.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

/// Accumulates superstep records in flat, pre-reserved storage.
///
/// The engine's steady-state loop must not allocate; pushing a
/// [`SuperstepRecord`] directly would allocate its `h_by_fold` vector per
/// superstep. A `TraceBuilder` instead appends `(label, total, h…)` to three
/// flat vectors reserved up front (the program length bounds the superstep
/// count), and materializes the [`CommTrace`] once at the end of the run.
#[derive(Debug)]
pub struct TraceBuilder {
    /// `log2` of the trace granularity (`log v` or `log p`).
    log_gran: u32,
    n: usize,
    labels: Vec<u32>,
    totals: Vec<u64>,
    /// Row-major `[step][fold level]` degree matrix.
    flat_h: Vec<u64>,
}

impl TraceBuilder {
    /// A builder for a trace at granularity `gran` with room for
    /// `expected_steps` supersteps without reallocation.
    pub fn new(gran: usize, n: usize, expected_steps: usize) -> Self {
        let log_gran = log2_exact(gran);
        TraceBuilder {
            log_gran,
            n,
            labels: Vec::with_capacity(expected_steps),
            totals: Vec::with_capacity(expected_steps),
            flat_h: Vec::with_capacity(expected_steps * log_gran as usize),
        }
    }

    /// Appends one superstep's metrics from its streaming counters.
    /// Allocation-free while within the reserved capacity.
    pub fn push_superstep(&mut self, label: u32, counters: &DegreeCounters) {
        debug_assert_eq!(counters.levels(), self.log_gran, "granularity mismatch");
        self.labels.push(label);
        self.totals.push(counters.total());
        for j in 1..=counters.levels() {
            self.flat_h.push(counters.level_max(j));
        }
    }

    /// Appends one superstep's metrics from the precomputed [`StepMetrics`]
    /// of a planned oblivious superstep: `O(log gran)`, no per-message work
    /// — and, on the sharded path, no [`EpochMerge`] and no merge barrier
    /// (the coordinator pushes the record inside its own exec phase,
    /// overlapped with the other workers' execution). `count_internal`
    /// selects the total policy (`true` for full-granularity traces,
    /// `false` for folded ones). Allocation-free while within the reserved
    /// capacity.
    pub fn push_precomputed(&mut self, label: u32, metrics: &StepMetrics, count_internal: bool) {
        debug_assert!(metrics.levels() >= self.log_gran, "plan narrower than the trace");
        self.labels.push(label);
        self.totals.push(metrics.total_at(self.log_gran, count_internal));
        self.flat_h.extend_from_slice(metrics.h_prefix(self.log_gran));
    }

    /// Appends one superstep's metrics from a completed [`EpochMerge`] of
    /// shard-local counters. Allocation-free while within the reserved
    /// capacity.
    pub fn push_merged(&mut self, label: u32, merged: &EpochMerge) {
        debug_assert_eq!(merged.levels(), self.log_gran, "granularity mismatch");
        self.labels.push(label);
        self.totals.push(merged.total());
        for j in 1..=merged.levels() {
            self.flat_h.push(merged.level_max(j));
        }
    }

    /// Re-targets a pooled builder at a new run: records are cleared (the
    /// flat storage keeps its capacity) and the granularity and problem size
    /// are replaced, so a serving layer can recycle one builder across jobs
    /// without re-paying its three vector allocations. Grows only when
    /// `expected_steps` exceeds every previous run's reservation.
    pub fn reset(&mut self, gran: usize, n: usize, expected_steps: usize) {
        self.log_gran = log2_exact(gran);
        self.n = n;
        self.labels.clear();
        self.totals.clear();
        self.flat_h.clear();
        self.labels.reserve(expected_steps);
        self.totals.reserve(expected_steps);
        self.flat_h.reserve(expected_steps * self.log_gran as usize);
    }

    /// Materializes the accumulated records as a [`CommTrace`] without
    /// consuming the builder — the pooled counterpart of
    /// [`TraceBuilder::finish`], for builders that outlive the run.
    pub fn snapshot(&self) -> CommTrace {
        let levels = self.log_gran as usize;
        let steps = self
            .labels
            .iter()
            .zip(&self.totals)
            .enumerate()
            .map(|(i, (&label, &total))| SuperstepRecord {
                label,
                h_by_fold: self.flat_h[i * levels..(i + 1) * levels].to_vec(),
                total_msgs: total,
            })
            .collect();
        CommTrace { log_v: self.log_gran, n: self.n, steps }
    }

    /// Number of supersteps pushed so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no superstep has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Materializes the accumulated records as a [`CommTrace`].
    pub fn finish(self) -> CommTrace {
        let levels = self.log_gran as usize;
        let steps = self
            .labels
            .iter()
            .zip(&self.totals)
            .enumerate()
            .map(|(i, (&label, &total))| SuperstepRecord {
                label,
                h_by_fold: self.flat_h[i * levels..(i + 1) * levels].to_vec(),
                total_msgs: total,
            })
            .collect();
        CommTrace { log_v: self.log_gran, n: self.n, steps }
    }
}

/// The `F^i`/`S^i` aggregates of a trace folded onto `p` processors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldedMetrics {
    /// Number of processors of the folded machine.
    pub p: usize,
    /// `f[i] = F^i(n, p)`: cumulative degree of all i-supersteps, `0 ≤ i < log p`.
    pub f: Vec<u64>,
    /// `s[i] = S^i(n)`: number of i-supersteps, `0 ≤ i < log p`.
    pub s: Vec<u64>,
}

impl FoldedMetrics {
    /// Communication complexity `H(n, p, σ) = Σ_i (F^i + S^i·σ)` (Eq. 1).
    pub fn comm_complexity(&self, sigma: f64) -> f64 {
        self.f
            .iter()
            .zip(&self.s)
            .map(|(&f, &s)| f as f64 + s as f64 * sigma)
            .sum()
    }

    /// Communication time `D(n, p, g, ℓ) = Σ_i (F^i·g_i + S^i·ℓ_i)` (Eq. 2)
    /// on a D-BSP machine with `p` processors.
    pub fn comm_time(&self, machine: &DbspMachine) -> Result<f64, ModelError> {
        if machine.p != self.p {
            return Err(ModelError::BadFold { p: machine.p, v: self.p });
        }
        Ok(self
            .f
            .iter()
            .zip(&self.s)
            .zip(machine.g.iter().zip(&machine.ell))
            .map(|((&f, &s), (&g, &l))| f as f64 * g + s as f64 * l)
            .sum())
    }

    /// Total message volume charged at this fold: `Σ_i F^i`.
    pub fn total_f(&self) -> u64 {
        self.f.iter().sum()
    }

    /// Total superstep count charged at this fold: `Σ_i S^i`.
    pub fn total_s(&self) -> u64 {
        self.s.iter().sum()
    }
}

/// The complete communication record of one execution on `M(v)`.
///
/// ```
/// use nob_core::metrics::{CommTrace, SuperstepRecord};
/// use nob_core::machines;
///
/// // One 0-superstep on M(8): a bisection exchange of degree 1.
/// let mut trace = CommTrace::new(8, 8);
/// let msgs: Vec<(usize, usize)> = (0..4).map(|k| (k, k + 4)).collect();
/// trace.steps.push(SuperstepRecord::from_messages(0, 3, msgs));
///
/// // Eq. (1) on M(p, σ): H = F^0 + S^0·σ.
/// assert_eq!(trace.comm_complexity(2, 10.0), 4.0 + 10.0);
/// assert_eq!(trace.comm_complexity(8, 0.0), 1.0);
///
/// // Eq. (2) on a D-BSP preset.
/// let d = trace.comm_time(&machines::mesh2d(4));
/// assert_eq!(d, 2.0 * 2.0 + 2.0); // h·g_0 + ℓ_0 on the 2x2 mesh
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommTrace {
    /// `log2 v` where `v` is the number of processing elements of the machine.
    pub log_v: u32,
    /// Input size `n` the algorithm was run on (carried for reporting).
    pub n: usize,
    /// One record per superstep, in execution order.
    pub steps: Vec<SuperstepRecord>,
}

impl CommTrace {
    /// Creates an empty trace for a machine of `v` processing elements.
    pub fn new(v: usize, n: usize) -> Self {
        CommTrace { log_v: log2_exact(v), n, steps: Vec::new() }
    }

    /// Number of processing elements `v`.
    #[inline]
    pub fn v(&self) -> usize {
        1usize << self.log_v
    }

    /// Number of supersteps executed.
    #[inline]
    pub fn superstep_count(&self) -> usize {
        self.steps.len()
    }

    /// Total number of messages exchanged over the whole execution.
    pub fn total_messages(&self) -> u64 {
        self.steps.iter().map(|s| s.total_msgs).sum()
    }

    /// Maximum per-VP degree over the execution (fold at full granularity).
    pub fn max_degree(&self) -> u64 {
        self.steps.iter().map(|s| s.h(self.log_v)).max().unwrap_or(0)
    }

    /// `S^i(n)` for `0 ≤ i < log v`: the number of i-supersteps.
    pub fn s_counts(&self) -> Vec<u64> {
        let mut s = vec![0u64; (self.log_v.max(1)) as usize];
        for step in &self.steps {
            s[step.label as usize] += 1;
        }
        s
    }

    /// Folds the trace onto `p` processors, producing the `F^i(n, p)` and
    /// `S^i(n)` aggregates for `0 ≤ i < log p`.
    ///
    /// # Panics
    /// Panics if `p` is not a power of two in `[2, v]`.
    pub fn fold(&self, p: usize) -> FoldedMetrics {
        // allow-panic: documented `# Panics` API contract.
        assert!(
            p.is_power_of_two() && p >= 2 && p <= self.v(),
            "fold target p = {p} must be a power of two in [2, {}]",
            self.v()
        );
        let j = log2_exact(p);
        let len = j as usize;
        let mut f = vec![0u64; len];
        let mut s = vec![0u64; len];
        for step in &self.steps {
            if step.label < j {
                f[step.label as usize] += step.h(j);
                s[step.label as usize] += 1;
            }
        }
        FoldedMetrics { p, f, s }
    }

    /// Communication complexity `H(n, p, σ)` (Eq. 1) of the folding on `M(p, σ)`.
    pub fn comm_complexity(&self, p: usize, sigma: f64) -> f64 {
        self.fold(p).comm_complexity(sigma)
    }

    /// Communication time `D(n, p, g, ℓ)` (Eq. 2) of the folding on a D-BSP.
    ///
    /// # Panics
    /// Panics if the machine is larger than the trace's `M(v)`.
    pub fn comm_time(&self, machine: &DbspMachine) -> f64 {
        // allow-panic: fold(machine.p) yields matching metrics by construction.
        self.fold(machine.p)
            .comm_time(machine)
            .expect("fold(machine.p) produces matching metrics")
    }

    /// Appends the records of `other` (executed on the same machine size) to
    /// this trace, as if the two programs ran back to back.
    pub fn extend(&mut self, other: &CommTrace) {
        // allow-panic: documented API contract (same machine size).
        assert_eq!(self.log_v, other.log_v, "traces from different machine sizes");
        self.steps.extend(other.steps.iter().cloned());
    }

    /// Serializes the trace to a compact line-oriented text format (one
    /// header line, then one line per superstep: `label total h(2) h(4) …`).
    /// Archives a run without extra dependencies.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // allow-panic: fmt::Write to a String is infallible.
        writeln!(out, "commtrace v1 log_v={} n={} steps={}", self.log_v, self.n, self.steps.len())
            .unwrap();
        for s in &self.steps {
            // allow-panic: as above — writing to a String cannot fail.
            write!(out, "{} {}", s.label, s.total_msgs).unwrap();
            for h in &s.h_by_fold {
                write!(out, " {h}").unwrap();
            }
            // allow-panic: as above.
            writeln!(out).unwrap();
        }
        out
    }

    /// Parses the [`CommTrace::to_text`] format.
    pub fn from_text(text: &str) -> Result<CommTrace, ModelError> {
        let bad = |reason: &'static str| ModelError::BadParameter { what: "trace", reason };
        let mut lines = text.lines();
        let header = lines.next().ok_or(bad("empty input"))?;
        let mut log_v = None;
        let mut n = None;
        for tok in header.split_whitespace() {
            if let Some(v) = tok.strip_prefix("log_v=") {
                log_v = v.parse::<u32>().ok();
            } else if let Some(v) = tok.strip_prefix("n=") {
                n = v.parse::<usize>().ok();
            }
        }
        let (log_v, n) = (log_v.ok_or(bad("missing log_v"))?, n.ok_or(bad("missing n"))?);
        let mut steps = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let label: u32 =
                it.next().and_then(|t| t.parse().ok()).ok_or(bad("missing label"))?;
            let total_msgs: u64 =
                it.next().and_then(|t| t.parse().ok()).ok_or(bad("missing total"))?;
            let h_by_fold: Vec<u64> =
                it.map(|t| t.parse().map_err(|_| bad("bad degree"))).collect::<Result<_, _>>()?;
            if h_by_fold.len() != log_v as usize {
                return Err(bad("degree vector length mismatch"));
            }
            steps.push(SuperstepRecord { label, h_by_fold, total_msgs });
        }
        Ok(CommTrace { log_v, n, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One superstep on v = 8 where VP 0 sends one message to each other VP.
    fn star_step() -> SuperstepRecord {
        let msgs: Vec<(usize, usize)> = (1..8).map(|d| (0, d)).collect();
        SuperstepRecord::from_messages(0, 3, msgs)
    }

    #[test]
    fn epoch_wrap_forgets_pre_wrap_counts() {
        // Count a message at the last epoch before the wrap, wrap, then
        // jump to the next cycle's `u32::MAX`: the slot that message
        // stamped must start from zero again, as on a fresh counter.
        let fresh = {
            let mut c = DegreeCounters::full(3);
            c.begin_superstep();
            c.record(0, 7);
            c
        };
        let mut c = DegreeCounters::full(3);
        c.epoch = u32::MAX - 1;
        c.begin_superstep();
        c.record(0, 7);
        c.begin_superstep();
        assert_eq!(c.epoch, 1, "the epoch wraps to 1");
        c.epoch = u32::MAX - 1;
        c.begin_superstep();
        c.record(0, 7);
        for j in 1..=3 {
            assert_eq!(c.level_max(j), fresh.level_max(j), "level {j}");
        }
        assert_eq!(c.total(), fresh.total());
    }

    #[test]
    fn star_degrees_by_fold() {
        let s = star_step();
        // Fold to 2 procs: proc 0 = VPs 0..4 sends 4 external messages (to 4,5,6,7).
        assert_eq!(s.h(1), 4);
        // Fold to 4 procs: proc 0 = VPs {0,1} sends 6 external; max recv = 2.
        assert_eq!(s.h(2), 6);
        // Full granularity: VP0 sends 7.
        assert_eq!(s.h(3), 7);
        assert_eq!(s.total_msgs, 7);
    }

    #[test]
    fn internal_messages_do_not_count() {
        // All messages stay within the first half: invisible at fold 2.
        let msgs = vec![(0usize, 1usize), (1, 2), (2, 3), (3, 0)];
        let s = SuperstepRecord::from_messages(1, 3, msgs);
        assert_eq!(s.h(1), 0);
        // At fold 4: procs {0,1} and {2,3} exchange: 1->2 and 3->0 cross.
        assert_eq!(s.h(2), 1);
        assert_eq!(s.h(3), 1);
    }

    /// Streams unit edges through counters; multiplicity `c` becomes `c`
    /// calls, as the engine produces.
    fn stream(label: u32, counters: &mut DegreeCounters, edges: &[(usize, usize, u64)]) -> SuperstepRecord {
        counters.begin_superstep();
        for &(s, d, c) in edges {
            for _ in 0..c {
                counters.record(s, d);
            }
        }
        SuperstepRecord::from_degree_counters(label, counters)
    }

    #[test]
    fn degree_counters_match_counted_edges_exactly() {
        let log_v = 4u32;
        let v = 1usize << log_v;
        let mut counters = DegreeCounters::full(log_v);
        // A deterministic pseudo-random pattern including self-sends, bursts
        // and cross-bisection traffic; reuse the counters across "supersteps"
        // to exercise the epoch invalidation.
        let mut state = 0x1234_5678u64;
        for round in 0..32 {
            let mut edges = Vec::new();
            for _ in 0..(round % 7) * 3 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let s = (state >> 20) as usize % v;
                let d = (state >> 40) as usize % v;
                let c = 1 + (state % 3);
                edges.push((s, d, c));
            }
            let label = round % log_v;
            let want = SuperstepRecord::from_counted_edges(label, log_v, &edges);
            let got = stream(label, &mut counters, &edges);
            assert_eq!(got, want, "divergence at round {round}: {edges:?}");
        }
    }

    /// Replays `edges` the way the sharded executor does — send side on the
    /// source shard, receive side on the destination shard — and merges.
    fn stream_sharded(
        label: u32,
        log_v: u32,
        levels: u32,
        log_shards: u32,
        edges: &[(usize, usize, u64)],
    ) -> SuperstepRecord {
        let shards = 1usize << log_shards;
        let shard_shift = log_v - log_shards;
        let mut locals: Vec<DegreeCounters> = (0..shards)
            .map(|w| {
                if levels == log_v {
                    DegreeCounters::shard_full(log_v, log_shards, w)
                } else {
                    DegreeCounters::shard_folded(log_v, levels, log_shards, w)
                }
            })
            .collect();
        for c in &mut locals {
            c.begin_superstep();
        }
        for &(s, d, cnt) in edges {
            let (ws, wd) = (s >> shard_shift, d >> shard_shift);
            for _ in 0..cnt {
                if ws == wd {
                    locals[ws].record(s, d);
                } else {
                    locals[ws].record_sent(s, d);
                    locals[wd].record_received(s, d);
                }
            }
        }
        let mut merge = EpochMerge::new(levels, log_shards);
        merge.begin_superstep();
        for (w, c) in locals.iter().enumerate() {
            merge.add_shard(w, c);
        }
        merge.finish();
        SuperstepRecord {
            label,
            h_by_fold: (1..=levels).map(|j| merge.level_max(j)).collect(),
            total_msgs: merge.total(),
        }
    }

    #[test]
    fn sharded_counters_match_counted_edges_exactly() {
        let log_v = 5u32;
        let v = 1usize << log_v;
        let mut state = 0xdead_beefu64;
        for round in 0..48 {
            let mut edges = Vec::new();
            for _ in 0..(round % 9) * 2 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let s = (state >> 20) as usize % v;
                let d = (state >> 40) as usize % v;
                edges.push((s, d, 1 + state % 2));
            }
            // Full granularity, every shard width that fits.
            for log_shards in 0..=log_v {
                let got = stream_sharded(0, log_v, log_v, log_shards, &edges);
                let want = SuperstepRecord::from_counted_edges(0, log_v, &edges);
                assert_eq!(got, want, "full-gran divergence at 2^{log_shards} shards: {edges:?}");
            }
            // Folded granularity p = 8, shard counts up to p.
            for log_shards in 0..=3u32 {
                let got = stream_sharded(0, log_v, 3, log_shards, &edges);
                let shift = log_v - 3;
                let ext: Vec<(usize, usize, u64)> = edges
                    .iter()
                    .map(|&(s, d, c)| (s >> shift, d >> shift, c))
                    .filter(|(ps, pd, _)| ps != pd)
                    .collect();
                let want = SuperstepRecord::from_counted_edges(0, 3, &ext);
                assert_eq!(got, want, "folded divergence at 2^{log_shards} shards: {edges:?}");
            }
        }
    }

    /// Asserts that `StepMetricsBuilder` over `edges` (multiplicity `c` =
    /// `c` records, in the given order) is bit-for-bit what the engine's
    /// streamed counters produce for the same multiset — full granularity
    /// *and* every folded granularity (`h` prefix and both total policies)
    /// — and what `from_counted_edges` derives from the edge list.
    fn assert_step_metrics_match(log_v: u32, edges: &[(usize, usize, u64)], what: &str) {
        let mut b = StepMetricsBuilder::new(log_v);
        for &(s, d, c) in edges {
            for _ in 0..c {
                b.record(s, d);
            }
        }
        let m = b.finish();
        assert_eq!(m.levels(), log_v, "{what}");
        let want = stream(0, &mut DegreeCounters::full(log_v), edges);
        assert_eq!(m.h_prefix(log_v), &want.h_by_fold[..], "{what}");
        assert_eq!(m.total_at(log_v, true), want.total_msgs, "{what}");
        assert_eq!(want, SuperstepRecord::from_counted_edges(0, log_v, edges), "{what}");
        for levels in 1..=log_v {
            let want = stream(0, &mut DegreeCounters::folded(log_v, levels), edges);
            assert_eq!(m.h_prefix(levels), &want.h_by_fold[..], "{what} L{levels}");
            assert_eq!(m.total_at(levels, false), want.total_msgs, "{what} L{levels}");
            // The folded record is also the counted-edge record of the
            // processor-external edges at that granularity.
            let shift = log_v - levels;
            let ext: Vec<(usize, usize, u64)> = edges
                .iter()
                .map(|&(s, d, c)| (s >> shift, d >> shift, c))
                .filter(|(ps, pd, _)| ps != pd)
                .collect();
            let counted = SuperstepRecord::from_counted_edges(0, levels, &ext);
            assert_eq!(want, counted, "{what} L{levels}");
        }
    }

    /// A deterministic pseudo-random value stream.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 20
        }
    }

    #[test]
    fn step_metrics_match_streamed_counters_at_every_granularity() {
        for log_v in [1u32, 2, 5, 8] {
            let v = 1usize << log_v;
            let mut next = lcg(0x5eed_cafe ^ u64::from(log_v));
            for round in 0..24 {
                let edges: Vec<(usize, usize, u64)> = (0..round * 2)
                    .map(|_| (next() as usize % v, next() as usize % v, 1 + next() % 3))
                    .collect();
                assert_step_metrics_match(log_v, &edges, &format!("log_v {log_v} round {round}"));
            }
        }
    }

    #[test]
    fn step_metrics_match_streamed_counters_on_structured_patterns() {
        for log_v in [1u32, 2, 5, 8] {
            let v = 1usize << log_v;
            // Nothing is external anywhere: only the full-granularity total
            // sees these.
            let selfs: Vec<_> = (0..v).map(|k| (k, k, 1 + (k as u64 & 1))).collect();
            assert_step_metrics_match(log_v, &selfs, &format!("log_v {log_v} self-sends"));
            // Total fan-in with multiplicity: the receive side sets every
            // level's degree.
            let fan_in: Vec<_> = (0..v).map(|k| (k, v - 1, 3)).collect();
            assert_step_metrics_match(log_v, &fan_in, &format!("log_v {log_v} fan-in"));
            // One butterfly per level: every message of a step has the same
            // first external level.
            for bit in 0..log_v {
                let bfly: Vec<_> = (0..v).map(|k| (k, k ^ (1 << bit), 1)).collect();
                assert_step_metrics_match(log_v, &bfly, &format!("log_v {log_v} butterfly {bit}"));
            }
            // A mixed multiset recorded in a shuffled (not source-ascending)
            // order: the result is a function of the multiset alone.
            let mut mixed = [selfs, fan_in].concat();
            mixed.extend((0..v).map(|k| (k, k ^ (v >> 1), 2)));
            let mut next = lcg(0xfeed ^ u64::from(log_v));
            for i in (1..mixed.len()).rev() {
                mixed.swap(i, next() as usize % (i + 1));
            }
            assert_step_metrics_match(log_v, &mixed, &format!("log_v {log_v} shuffled"));
        }
    }

    #[test]
    fn step_metrics_match_streamed_counters_at_fold_tree_boundaries() {
        // log_v = 1: the root is the only common node; every edge, twice.
        let pairs: Vec<_> = (0..4).map(|e| (e >> 1, e & 1, 2)).collect();
        assert_step_metrics_match(1, &pairs, "log_v 1 all pairs");
        for log_v in [2u32, 3, 6] {
            let v = 1usize << log_v;
            // Top differing bit log_v - 1: the lowest common node is the
            // root (heap entry 1), from both sides of the bisection and
            // across its middle.
            let root = [(0, v - 1, 1), (v - 1, 0, 2), (v / 2 - 1, v / 2, 3), (v / 2, v / 2 - 1, 1)];
            assert_step_metrics_match(log_v, &root, &format!("log_v {log_v} root"));
            // Top differing bit 0: every lowest common node is a leaf pair's
            // parent (the last v / 2 heap entries), mixed with self-sends
            // that no level but the full total sees.
            let leaves: Vec<_> = (0..v)
                .flat_map(|k| [(k, k ^ 1, 1 + (k as u64 % 3)), (k, k, 1)])
                .collect();
            assert_step_metrics_match(log_v, &leaves, &format!("log_v {log_v} leaves"));
            // Both ends at once, on the same VPs.
            let both = [root.to_vec(), leaves].concat();
            assert_step_metrics_match(log_v, &both, &format!("log_v {log_v} root + leaves"));
        }
    }

    #[test]
    fn silent_step_metrics_are_what_an_unfed_builder_finishes_to() {
        for log_v in [1u32, 2, 5, 8] {
            assert_eq!(StepMetrics::silent(log_v), StepMetricsBuilder::new(log_v).finish());
        }
    }

    #[test]
    fn exchange_step_metrics_are_what_a_builder_fed_the_butterfly_finishes_to() {
        for log_v in 1u32..=8 {
            let v = 1usize << log_v;
            for mask in 0..v {
                let mut b = StepMetricsBuilder::new(log_v);
                (0..v).for_each(|vp| b.record(vp, vp ^ mask));
                let prefix = crate::folding::common_prefix(0, mask, log_v);
                assert_eq!(StepMetrics::exchange(log_v, prefix), b.finish(), "v {v} mask {mask}");
            }
        }
    }

    #[test]
    fn trace_builder_precomputed_matches_streamed_push() {
        let log_v = 4u32;
        let edges = [(0usize, 9usize), (3, 3), (7, 8), (0, 9), (15, 0)];
        let mut b = StepMetricsBuilder::new(log_v);
        let mut c = DegreeCounters::full(log_v);
        c.begin_superstep();
        for &(s, d) in &edges {
            b.record(s, d);
            c.record(s, d);
        }
        let m = b.finish();
        let mut t1 = TraceBuilder::new(16, 16, 1);
        t1.push_superstep(0, &c);
        let mut t2 = TraceBuilder::new(16, 16, 1);
        t2.push_precomputed(0, &m, true);
        assert_eq!(t1.finish(), t2.finish());
        // Folded granularity: internal messages drop out of the total.
        let mut cf = DegreeCounters::folded(log_v, 2);
        cf.begin_superstep();
        for &(s, d) in &edges {
            cf.record(s, d);
        }
        let mut t1 = TraceBuilder::new(4, 16, 1);
        t1.push_superstep(0, &cf);
        let mut t2 = TraceBuilder::new(4, 16, 1);
        t2.push_precomputed(0, &m, false);
        assert_eq!(t1.finish(), t2.finish());
    }

    #[test]
    fn epoch_merge_is_reusable_across_supersteps() {
        // The same counters + merger across two supersteps must not leak
        // counts from the first into the second (epoch stamps + scalar
        // resets).
        let log_v = 4u32;
        let mut a = DegreeCounters::shard_full(log_v, 1, 0);
        let mut b = DegreeCounters::shard_full(log_v, 1, 1);
        let mut merge = EpochMerge::new(log_v, 1);
        // Superstep 1: a burst across the bisection.
        a.begin_superstep();
        b.begin_superstep();
        for _ in 0..5 {
            a.record_sent(0, 12);
            b.record_received(0, 12);
        }
        merge.begin_superstep();
        merge.add_shard(0, &a);
        merge.add_shard(1, &b);
        merge.finish();
        assert_eq!(merge.level_max(1), 5);
        assert_eq!(merge.total(), 5);
        // Superstep 2: a single local message; the bisection count is gone.
        a.begin_superstep();
        b.begin_superstep();
        a.record(1, 2);
        merge.begin_superstep();
        merge.add_shard(0, &a);
        merge.add_shard(1, &b);
        merge.finish();
        assert_eq!(merge.level_max(1), 0);
        assert_eq!(merge.level_max(4), 1);
        assert_eq!(merge.total(), 1);
    }

    #[test]
    fn folded_counters_drop_internal_messages() {
        // v = 16 folded to p = 4 (levels = 2). A message 0 -> 3 is internal
        // at p = 4 (same top-2 bits): not counted at all.
        let mut c = DegreeCounters::folded(4, 2);
        c.begin_superstep();
        c.record(0, 3);
        assert_eq!(c.total(), 0);
        // 0 -> 12 crosses the bisection: external at both tracked levels.
        c.record(0, 12);
        assert_eq!(c.total(), 1);
        let rec = SuperstepRecord::from_degree_counters(0, &c);
        assert_eq!(rec.h_by_fold, vec![1, 1]);
        // Matches the legacy path over processor-granularity external edges.
        let want = SuperstepRecord::from_counted_edges(0, 2, &[(0, 3, 1)]);
        assert_eq!(rec, want);
    }

    #[test]
    fn counted_edges_match_unit_messages() {
        let unit: Vec<(usize, usize)> = vec![(0, 5); 10];
        let a = SuperstepRecord::from_messages(0, 3, unit);
        let b = SuperstepRecord::from_counted_edges(0, 3, &[(0, 5, 10)]);
        assert_eq!(a, b);
        assert_eq!(a.h(1), 10);
    }

    #[test]
    fn h_relation_is_max_of_in_and_out() {
        // VP0 sends 3 to VP4; VP5, VP6 each send 1 to VP1.
        let msgs = vec![(0, 4), (0, 4), (0, 4), (5, 1), (6, 1)];
        let s = SuperstepRecord::from_messages(0, 3, msgs);
        // Fold 2: proc0 out=3 in=2 -> 3; proc1 out=2 in=3 -> 3.
        assert_eq!(s.h(1), 3);
        assert_eq!(s.h(3), 3); // VP0 out=3; VP1 in=2; VP4 in=3.
    }

    fn two_step_trace() -> CommTrace {
        let mut t = CommTrace::new(8, 8);
        // A 0-superstep: bisection exchange, each VP k <-> k+4. Degree 1 everywhere.
        let msgs: Vec<(usize, usize)> =
            (0..4).flat_map(|k| [(k, k + 4), (k + 4, k)]).collect();
        t.steps.push(SuperstepRecord::from_messages(0, 3, msgs));
        // A 1-superstep: within each half, k <-> k+2.
        let msgs: Vec<(usize, usize)> = (0..2)
            .flat_map(|k| [(k, k + 2), (k + 2, k), (k + 4, k + 6), (k + 6, k + 4)])
            .collect();
        t.steps.push(SuperstepRecord::from_messages(1, 3, msgs));
        t
    }

    #[test]
    fn fold_aggregates_by_label() {
        let t = two_step_trace();
        let m8 = t.fold(8);
        assert_eq!(m8.f, vec![1, 1, 0]);
        assert_eq!(m8.s, vec![1, 1, 0]);
        let m4 = t.fold(4);
        // At p = 4 the 0-superstep still has degree... each proc of 2 VPs
        // sends 2 external in step 0 (k and k+1 both cross halves): h = 2.
        // Step 1 (label 1): VPs {0,1} -> {2,3}: proc0 sends 2: h = 2.
        assert_eq!(m4.f, vec![2, 2]);
        assert_eq!(m4.s, vec![1, 1]);
        let m2 = t.fold(2);
        // Step 0: 4 messages each way across the bisection: h = 4.
        // Step 1 label >= log p: local, dropped.
        assert_eq!(m2.f, vec![4]);
        assert_eq!(m2.s, vec![1]);
    }

    #[test]
    fn comm_complexity_eq1() {
        let t = two_step_trace();
        // H(n, 8, σ) = (1 + σ) + (1 + σ) + 0 = 2 + 2σ.
        assert_eq!(t.comm_complexity(8, 0.0), 2.0);
        assert_eq!(t.comm_complexity(8, 3.0), 8.0);
        // H(n, 2, σ) = 4 + σ.
        assert_eq!(t.comm_complexity(2, 5.0), 9.0);
    }

    #[test]
    fn comm_time_eq2() {
        let t = two_step_trace();
        let m = DbspMachine::new(8, vec![4.0, 2.0, 1.0], vec![16.0, 4.0, 1.0]).unwrap();
        // D = F0*g0 + S0*l0 + F1*g1 + S1*l1 + 0 = 4 + 16 + 2 + 4 = 26.
        assert_eq!(t.comm_time(&m), 26.0);
        let m2 = DbspMachine::new(2, vec![1.0], vec![10.0]).unwrap();
        assert_eq!(t.comm_time(&m2), 14.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fold_rejects_bad_p() {
        two_step_trace().fold(3);
    }

    #[test]
    fn extend_concatenates() {
        let mut t = two_step_trace();
        let u = two_step_trace();
        t.extend(&u);
        assert_eq!(t.superstep_count(), 4);
        assert_eq!(t.comm_complexity(8, 0.0), 4.0);
    }

    #[test]
    fn text_roundtrip() {
        let t = two_step_trace();
        let text = t.to_text();
        let back = CommTrace::from_text(&text).unwrap();
        assert_eq!(back, t);
        // Malformed inputs are rejected, not mis-parsed.
        assert!(CommTrace::from_text("").is_err());
        assert!(CommTrace::from_text("commtrace v1 log_v=3 steps=1\n0 1 9 9").is_err());
        assert!(CommTrace::from_text("commtrace v1 log_v=3 n=8 steps=1\n0 x 1 1 1").is_err());
    }
}
