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

/// Precomputed metrics of one *oblivious* superstep: the analytic record of
/// a message multiset that is a static function of the VP index.
///
/// Communication-plan layers compile these once per program with a
/// [`StepMetricsBuilder`] — the accumulator the engine also meters its
/// dynamic supersteps with, so the two agree bit for bit on the same
/// multiset (dummy messages included) — and then emit a superstep record in
/// `O(log v)` per run via [`TraceBuilder::push_precomputed`], instead of
/// recording every message on every execution. Like the record it
/// produces, it holds the degree of every folding at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepMetrics {
    /// Fold levels covered (`log v` of the machine the step was declared on).
    levels: u32,
    /// `h_by_fold[j-1]` = superstep degree at fold `2^j`, `1 ≤ j ≤ levels`.
    h_by_fold: Vec<u64>,
    /// All declared messages, internal ones (self-sends) included.
    total: u64,
}

/// The one accumulator of a superstep's degrees: feed every message once (in
/// any order), then [`StepMetricsBuilder::finish`] it into a plan's
/// [`StepMetrics`], or [`StepMetricsBuilder::finish_into`] a trace — what the
/// engine does once per dynamic superstep, reusing one builder for the run.
///
/// A message is external at fold `2^j` exactly for `j ≥ j_min`, its *first
/// external level*. Instead of walking those levels per message, `record`
/// only notes the two ends of that range — the per-VP counts (level
/// `log v`, where every non-self message is external) and one count at the
/// node of the fold tree where the message stops being external — and
/// `finish` recovers every level in one bottom-up `O(v)` pass: a processor's external traffic one
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
///
/// All three arrays are additive in the multiset, so builders that each saw
/// part of a superstep — a gang's shards, each metering what it sends —
/// [`StepMetricsBuilder::add`] up to the builder of the whole.
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
        // The top differing bit is bit `up - 1`, so the two ids share their
        // top `log_v - up` bits: leaf `v + src` of the heap-ordered fold
        // tree, lifted `up` levels, is their lowest common node.
        let up = x.ilog2() + 1;
        self.sent[src] += 1;
        self.recv[dst] += 1;
        self.cross[((1usize << self.log_v) | src) >> up] += 1;
    }

    /// Adds `other`'s messages to these: afterwards this builder holds the
    /// union of the two multisets. Both must be on the same machine.
    pub fn add(&mut self, other: &StepMetricsBuilder) {
        debug_assert_eq!(self.log_v, other.log_v, "machine size mismatch");
        for (mine, theirs) in [
            (&mut self.sent, &other.sent),
            (&mut self.recv, &other.recv),
            (&mut self.cross, &other.cross),
        ] {
            mine.iter_mut().zip(theirs).for_each(|(a, b)| *a += b);
        }
        self.total += other.total;
    }

    /// Empties the builder in place, as [`StepMetricsBuilder::new`] makes
    /// it, keeping its arrays.
    pub fn clear(&mut self) {
        self.sent.fill(0);
        self.recv.fill(0);
        self.cross.fill(0);
        self.total = 0;
    }

    /// Seals the accumulated multiset into immutable [`StepMetrics`].
    pub fn finish(mut self) -> StepMetrics {
        let mut h_by_fold = vec![0; self.log_v as usize];
        self.fold_into(&mut h_by_fold);
        StepMetrics { levels: self.log_v, h_by_fold, total: self.total }
    }

    /// Appends the accumulated multiset to `trace` as one `label`-superstep
    /// and empties the builder for the next one: the engine's per-superstep
    /// finish, which allocates nothing while `trace` is within its reserved
    /// capacity.
    pub fn finish_into(&mut self, label: u32, trace: &mut TraceBuilder) {
        debug_assert_eq!(self.log_v, trace.log_v, "machine size mismatch");
        let at = trace.flat_h.len();
        trace.flat_h.resize(at + self.log_v as usize, 0);
        self.fold_into(&mut trace.flat_h[at..]);
        trace.labels.push(label);
        trace.totals.push(self.total);
        self.clear();
    }

    /// The bottom-up pass: writes the degree at fold `2^j` to
    /// `h_by_fold[j - 1]`, leaving `sent` and `recv` spent.
    fn fold_into(&mut self, h_by_fold: &mut [u64]) {
        let StepMetricsBuilder { log_v, sent, recv, cross, .. } = self;
        // Invariant: entering level j, `sent[p]` / `recv[p]` (p < 2^j) count
        // the messages processor p of fold 2^j exchanges with other
        // processors of that fold.
        for j in (1..=*log_v).rev() {
            let half = 1usize << (j - 1);
            let mut h = 0;
            for p in 0..half {
                let (l, r) = (2 * p, 2 * p + 1);
                h = h.max(sent[l]).max(recv[l]).max(sent[r]).max(recv[r]);
                // Siblings merge into processor p of fold 2^(j-1); the
                // traffic between them is internal to it, in both counts.
                let between = cross[half + p];
                sent[p] = sent[l] + sent[r] - between;
                recv[p] = recv[l] + recv[r] - between;
            }
            h_by_fold[(j - 1) as usize] = h;
        }
    }
}

impl StepMetrics {
    /// The metrics of a superstep that sends nothing, on a machine of
    /// `2^log_v` VPs — what a [`StepMetricsBuilder`] fed no message
    /// finishes to, without its `O(v)` accumulators.
    pub fn silent(log_v: u32) -> Self {
        StepMetrics { levels: log_v, h_by_fold: vec![0; log_v as usize], total: 0 }
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
            total: v,
        }
    }

    /// These metrics, of the messages of one `label`-cluster (a machine of
    /// `2^self.levels()` VPs), lifted to the machine `2^label` times larger
    /// whose cluster 0 that cluster is and whose `copies` other clusters each
    /// send the same messages, translated, except `extra` of them that are
    /// external at every fold of a cluster (the wiseness dummies, which only
    /// cluster 0 sends). Every fold `2^j` with `j ≤ label` holds whole
    /// clusters, so its degree is 0; at a finer fold the degree is cluster
    /// 0's, which sends at least what every other does, and the clusters'
    /// messages add up. What a [`StepMetricsBuilder`] fed every cluster's
    /// messages finishes to.
    pub fn lifted(self, label: u32, copies: u64, extra: u64) -> Self {
        if label == 0 {
            return self;
        }
        StepMetrics {
            levels: label + self.levels,
            h_by_fold: std::iter::repeat_n(0, label as usize).chain(self.h_by_fold).collect(),
            total: self.total + copies * (self.total - extra),
        }
    }

    /// Fold levels covered.
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// The degree vector `h(2^1) … h(2^levels)`.
    #[inline]
    pub fn h_by_fold(&self) -> &[u64] {
        &self.h_by_fold
    }

    /// Every declared message, internal ones (self-sends) included — the
    /// record's `total_msgs`.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Accumulates superstep records at granularity `v` in flat, pre-reserved
/// storage.
///
/// The engine's steady-state loop must not allocate; pushing a
/// [`SuperstepRecord`] directly would allocate its `h_by_fold` vector per
/// superstep. A `TraceBuilder` instead appends `(label, total, h…)` to three
/// flat vectors reserved up front (the program length bounds the superstep
/// count), and materializes the [`CommTrace`] once at the end of the run.
#[derive(Debug)]
pub struct TraceBuilder {
    log_v: u32,
    n: usize,
    labels: Vec<u32>,
    totals: Vec<u64>,
    /// Row-major `[step][fold level]` degree matrix.
    flat_h: Vec<u64>,
}

impl TraceBuilder {
    /// A builder for a trace of a run on `v` VPs with room for
    /// `expected_steps` supersteps without reallocation.
    pub fn new(v: usize, n: usize, expected_steps: usize) -> Self {
        let log_v = log2_exact(v);
        TraceBuilder {
            log_v,
            n,
            labels: Vec::with_capacity(expected_steps),
            totals: Vec::with_capacity(expected_steps),
            flat_h: Vec::with_capacity(expected_steps * log_v as usize),
        }
    }

    /// Appends one superstep's metrics from the precomputed [`StepMetrics`]
    /// of a planned oblivious superstep: `O(log v)`, no per-message work —
    /// and, on the sharded path, no merge barrier (the coordinator pushes the
    /// record inside its own exec phase, overlapped with the other workers'
    /// execution). Allocation-free while within the reserved capacity.
    pub fn push_precomputed(&mut self, label: u32, metrics: &StepMetrics) {
        debug_assert_eq!(metrics.levels(), self.log_v, "granularity mismatch");
        self.labels.push(label);
        self.totals.push(metrics.total());
        self.flat_h.extend_from_slice(metrics.h_by_fold());
    }

    /// Re-targets a pooled builder at a new run: records are cleared (the
    /// flat storage keeps its capacity) and the machine size `v` and problem
    /// size are replaced, so a serving layer can recycle one builder across
    /// jobs without re-paying its three vector allocations. Grows only when
    /// `expected_steps` exceeds every previous run's reservation.
    pub fn reset(&mut self, v: usize, n: usize, expected_steps: usize) {
        self.log_v = log2_exact(v);
        self.n = n;
        self.labels.clear();
        self.totals.clear();
        self.flat_h.clear();
        self.labels.reserve(expected_steps);
        self.totals.reserve(expected_steps);
        self.flat_h.reserve(expected_steps * self.log_v as usize);
    }

    /// Materializes the accumulated records as a [`CommTrace`] without
    /// consuming the builder, so a pooled builder outlives the run.
    pub fn snapshot(&self) -> CommTrace {
        let levels = self.log_v as usize;
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
        CommTrace { log_v: self.log_v, n: self.n, steps }
    }

    /// Number of supersteps pushed so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no superstep has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
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
        self.f.iter().zip(&self.s).map(|(&f, &s)| f as f64 + s as f64 * sigma).sum()
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
        self.fold(machine.p).comm_time(machine).expect("fold(machine.p) produces matching metrics")
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

    /// Parses the [`CommTrace::to_text`] format. A header whose `log_v` has
    /// no machine (`v = 2^log_v` must fit a `usize`), a record whose label
    /// is not one of the machine's (`label < max(1, log_v)`, as
    /// `Program::step` requires) and a header whose `steps=` is missing or
    /// differs from the number of records (a truncated or padded archive)
    /// are refused, not parsed into a trace that panics later or reads as
    /// another run.
    pub fn from_text(text: &str) -> Result<CommTrace, ModelError> {
        let bad = |reason: &'static str| ModelError::BadParameter { what: "trace", reason };
        let mut lines = text.lines();
        let header = lines.next().ok_or(bad("empty input"))?;
        let (mut log_v, mut n, mut declared) = (None, None, None);
        for tok in header.split_whitespace() {
            if let Some(v) = tok.strip_prefix("log_v=") {
                log_v = v.parse::<u32>().ok();
            } else if let Some(v) = tok.strip_prefix("n=") {
                n = v.parse::<usize>().ok();
            } else if let Some(v) = tok.strip_prefix("steps=") {
                declared = v.parse::<usize>().ok();
            }
        }
        let (log_v, n) = (log_v.ok_or(bad("missing log_v"))?, n.ok_or(bad("missing n"))?);
        let declared = declared.ok_or(bad("missing steps"))?;
        if log_v >= usize::BITS {
            return Err(bad("log_v too large for a machine"));
        }
        let mut steps = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let label: u32 = it.next().and_then(|t| t.parse().ok()).ok_or(bad("missing label"))?;
            if label >= log_v.max(1) {
                return Err(bad("label out of range"));
            }
            let total_msgs: u64 =
                it.next().and_then(|t| t.parse().ok()).ok_or(bad("missing total"))?;
            let h_by_fold: Vec<u64> =
                it.map(|t| t.parse().map_err(|_| bad("bad degree"))).collect::<Result<_, _>>()?;
            if h_by_fold.len() != log_v as usize {
                return Err(bad("degree vector length mismatch"));
            }
            steps.push(SuperstepRecord { label, h_by_fold, total_msgs });
        }
        if steps.len() != declared {
            return Err(bad("step count differs from the header's"));
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

    /// Streams unit edges through one reused builder into `trace`, as the
    /// engine meters a dynamic superstep: multiplicity `c` becomes `c`
    /// records, and the builder is left empty for the next superstep.
    fn stream(
        label: u32,
        builder: &mut StepMetricsBuilder,
        trace: &mut TraceBuilder,
        edges: &[(usize, usize, u64)],
    ) -> SuperstepRecord {
        for &(s, d, c) in edges {
            for _ in 0..c {
                builder.record(s, d);
            }
        }
        builder.finish_into(label, trace);
        trace.snapshot().steps.pop().unwrap()
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
    fn degree_counters_match_counted_edges_exactly() {
        let log_v = 4u32;
        let v = 1usize << log_v;
        // A deterministic pseudo-random pattern including self-sends, bursts
        // and cross-bisection traffic; one builder and one trace serve every
        // "superstep", so a count left over from one would show in the next.
        let mut builder = StepMetricsBuilder::new(log_v);
        let mut trace = TraceBuilder::new(v, v, 32);
        let mut next = lcg(0x1234_5678);
        for round in 0..32 {
            let edges: Vec<(usize, usize, u64)> = (0..(round % 7) * 3)
                .map(|_| (next() as usize % v, next() as usize % v, 1 + next() % 3))
                .collect();
            let label = round % log_v;
            let want = SuperstepRecord::from_counted_edges(label, log_v, &edges);
            let got = stream(label, &mut builder, &mut trace, &edges);
            assert_eq!(got, want, "divergence at round {round}: {edges:?}");
        }
        assert_eq!(trace.len(), 32);
    }

    #[test]
    fn sharded_counters_match_counted_edges_exactly() {
        // The gang's metering: each shard's builder sees only the messages
        // its shard sends, and the coordinator adds the shard builders into
        // shard 0's and finishes the sum. The builders are reused across
        // rounds, each emptied before its shard's next superstep.
        let log_v = 5u32;
        let v = 1usize << log_v;
        let mut next = lcg(0xdead_beef);
        for log_shards in 0..=log_v {
            let shard_shift = log_v - log_shards;
            let mut shards: Vec<_> =
                (0..1usize << log_shards).map(|_| StepMetricsBuilder::new(log_v)).collect();
            let mut trace = TraceBuilder::new(v, v, 48);
            for round in 0..48 {
                let edges: Vec<(usize, usize, u64)> = (0..(round % 9) * 2)
                    .map(|_| (next() as usize % v, next() as usize % v, 1 + next() % 2))
                    .collect();
                shards.iter_mut().for_each(StepMetricsBuilder::clear);
                for &(s, d, c) in &edges {
                    for _ in 0..c {
                        shards[s >> shard_shift].record(s, d);
                    }
                }
                let (sum, rest) = shards.split_first_mut().unwrap();
                rest.iter().for_each(|b| sum.add(b));
                sum.finish_into(0, &mut trace);
                let got = trace.snapshot().steps.pop().unwrap();
                let want = SuperstepRecord::from_counted_edges(0, log_v, &edges);
                assert_eq!(got, want, "divergence at 2^{log_shards} shards: {edges:?}");
            }
        }
    }

    /// Asserts that `StepMetricsBuilder` over `edges` (multiplicity `c` =
    /// `c` records, in the given order) finishes to what the engine's
    /// streamed form, a reused builder finished into a trace, records for
    /// the same multiset — every fold's degree and the total — and what
    /// `from_counted_edges` derives from the edge list.
    fn assert_step_metrics_match(log_v: u32, edges: &[(usize, usize, u64)], what: &str) {
        let mut b = StepMetricsBuilder::new(log_v);
        for &(s, d, c) in edges {
            for _ in 0..c {
                b.record(s, d);
            }
        }
        let m = b.finish();
        assert_eq!(m.levels(), log_v, "{what}");
        let v = 1usize << log_v;
        let want =
            stream(0, &mut StepMetricsBuilder::new(log_v), &mut TraceBuilder::new(v, v, 1), edges);
        assert_eq!(m.h_by_fold(), &want.h_by_fold[..], "{what}");
        assert_eq!(m.total(), want.total_msgs, "{what}");
        assert_eq!(want, SuperstepRecord::from_counted_edges(0, log_v, edges), "{what}");
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
            // Nothing is external anywhere: only the total sees these.
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
            let leaves: Vec<_> =
                (0..v).flat_map(|k| [(k, k ^ 1, 1 + (k as u64 % 3)), (k, k, 1)]).collect();
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
        let mut c = StepMetricsBuilder::new(log_v);
        for &(s, d) in &edges {
            b.record(s, d);
            c.record(s, d);
        }
        let m = b.finish();
        let mut t1 = TraceBuilder::new(16, 16, 1);
        c.finish_into(0, &mut t1);
        let mut t2 = TraceBuilder::new(16, 16, 1);
        t2.push_precomputed(0, &m);
        assert_eq!(t1.snapshot(), t2.snapshot());
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
        let msgs: Vec<(usize, usize)> = (0..4).flat_map(|k| [(k, k + 4), (k + 4, k)]).collect();
        t.steps.push(SuperstepRecord::from_messages(0, 3, msgs));
        // A 1-superstep: within each half, k <-> k+2.
        let msgs: Vec<(usize, usize)> =
            (0..2).flat_map(|k| [(k, k + 2), (k + 2, k), (k + 4, k + 6), (k + 6, k + 4)]).collect();
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

    #[test]
    fn text_with_no_machine_or_a_foreign_label_is_refused() {
        let refused = |text: &str| {
            let err = CommTrace::from_text(text).expect_err(text);
            assert!(
                matches!(err, ModelError::BadParameter { what: "trace", .. }),
                "{text}: {err:?}"
            );
        };
        // A label of no superstep of M(4), and the one label of M(1) past 0.
        refused("commtrace v1 log_v=2 n=4 steps=1\n5 1 0 0\n");
        refused("commtrace v1 log_v=2 n=4 steps=1\n2 1 0 0\n");
        refused("commtrace v1 log_v=0 n=1 steps=1\n1 0\n");
        // No machine has 2^70 (or 2^64) VPs.
        refused("commtrace v1 log_v=70 n=4 steps=0\n");
        refused("commtrace v1 log_v=64 n=4 steps=0\n");
        // The edges of what is accepted: the last label, and M(1)'s label 0.
        let t = CommTrace::from_text("commtrace v1 log_v=2 n=4 steps=1\n1 1 0 1\n").unwrap();
        assert_eq!(t.s_counts(), vec![0, 1]);
        let t = CommTrace::from_text("commtrace v1 log_v=0 n=1 steps=1\n0 3\n").unwrap();
        assert_eq!((t.v(), t.s_counts()), (1, vec![1]));
    }

    #[test]
    fn text_whose_step_count_disagrees_with_its_header_is_refused() {
        let refused = |text: &str| {
            let err = CommTrace::from_text(text).expect_err(text);
            assert!(
                matches!(err, ModelError::BadParameter { what: "trace", .. }),
                "{text}: {err:?}"
            );
        };
        // A truncated archive: three supersteps declared, one present.
        refused("commtrace v1 log_v=2 n=4 steps=3\n0 1 1 1\n");
        // Padded, and undeclared.
        refused("commtrace v1 log_v=2 n=4 steps=0\n0 1 1 1\n");
        refused("commtrace v1 log_v=2 n=4\n0 1 1 1\n");
        refused("commtrace v1 log_v=2 n=4 steps=x\n0 1 1 1\n");
        // Blank lines are not records.
        let t = CommTrace::from_text("commtrace v1 log_v=2 n=4 steps=1\n\n0 1 1 1\n\n").unwrap();
        assert_eq!(t.superstep_count(), 1);
        // What `to_text` writes, `from_text` reads back, empty trace included.
        for t in [two_step_trace(), zero_degree_trace(), CommTrace::new(8, 8)] {
            assert_eq!(CommTrace::from_text(&t.to_text()).unwrap(), t);
        }
    }

    /// On `M(8)`: a 0-superstep of self-sends only (degree 0 at every
    /// fold), a 1-superstep inside the halves but across the quarters
    /// (degree 0 at `p = 2`, 1 at `p ≥ 4`), and a 0-superstep of one
    /// message across the bisection (degree 1 at every fold).
    fn zero_degree_trace() -> CommTrace {
        let mut t = CommTrace::new(8, 8);
        t.steps.push(SuperstepRecord::from_messages(0, 3, (0..8).map(|k| (k, k))));
        t.steps.push(SuperstepRecord::from_messages(1, 3, vec![(0, 2), (2, 0)]));
        t.steps.push(SuperstepRecord::from_messages(0, 3, vec![(0, 4)]));
        t
    }

    #[test]
    fn zero_degree_supersteps_count_in_s() {
        // `S^i` counts every i-superstep, whatever its degree: a
        // superstep that sends nothing across a fold still ends with a
        // synchronization the folded machine pays `σ` (`ℓ_i`) for.
        let t = zero_degree_trace();
        assert_eq!(
            t.steps.iter().map(|s| s.h_by_fold.clone()).collect::<Vec<_>>(),
            [[0, 0, 0], [0, 1, 1], [1, 1, 1]]
        );
        assert_eq!(t.s_counts(), [2, 1, 0]);
        assert_eq!(t.fold(2), FoldedMetrics { p: 2, f: vec![1], s: vec![2] });
        assert_eq!(t.fold(4), FoldedMetrics { p: 4, f: vec![1, 1], s: vec![2, 1] });
        assert_eq!(t.fold(8), FoldedMetrics { p: 8, f: vec![1, 1, 0], s: vec![2, 1, 0] });
        // Eq. (1): H = Σ_i (F^i + S^i·σ).
        assert_eq!(t.comm_complexity(2, 10.0), 1.0 + 2.0 * 10.0);
        assert_eq!(t.comm_complexity(4, 10.0), (1.0 + 2.0 * 10.0) + (1.0 + 10.0));
        assert_eq!(t.comm_complexity(8, 0.5), (1.0 + 1.0) + (1.0 + 0.5));
        // Eq. (2): D = Σ_i (F^i·g_i + S^i·ℓ_i).
        let m = DbspMachine::new(4, vec![4.0, 2.0], vec![16.0, 4.0]).unwrap();
        assert_eq!(t.comm_time(&m), (4.0 + 2.0 * 16.0) + (2.0 + 4.0));
        let m = DbspMachine::new(2, vec![3.0], vec![7.0]).unwrap();
        assert_eq!(t.comm_time(&m), 3.0 + 2.0 * 7.0);
    }
}
