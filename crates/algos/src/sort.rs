//! The n-sort problem (Section 4.3): rank n keys by comparisons.
//!
//! [`ColumnSort`] is the paper's network-oblivious algorithm on `M(n)`: a
//! recursive version of Leighton's Columnsort. The keys form an `r×s` matrix
//! (column-major; each column is an aligned segment of `r` VPs) and the eight
//! phases alternate recursive column sorts (phases 1, 3, 5, 7) with fixed
//! permutations: transpose (2), untranspose (4), and the ±r/2 cyclic shift
//! (6, 8) of the paper's footnote 6.
//!
//! Two implementation choices, both documented deviations with unchanged
//! asymptotics:
//!
//! * **Shape**: the paper takes `r = n^{2/3}` (`r ≥ s²`); Leighton's
//!   correctness condition is `r ≥ 2(s−1)²`, which `r = s²` misses. We take
//!   `r = 2^{⌊2·log m/3⌋+1}`, within `[2^{1/3}, 2]·m^{2/3}` — same recurrence
//!   `H(m) = 4·H(Θ(m^{2/3})) + O(m/p + σ)`, hence the same Theorem 4.8 bound
//!   `H_sort(n, p, σ) = O((n/p + σ)·(log n/log(n/p))^{log_{3/2} 4})` — which
//!   satisfies Leighton's condition at every recursion level: `s = m/r ≤
//!   (m/2)^{1/3}`, so `2(s−1)² < 2s² ≤ 2^{1/3}·m^{2/3} ≤ r`.
//! * **The −∞ convention, tag-free**: footnote 6 asks phase 7 to treat the
//!   r/2 keys wrapped by the cyclic shift as smaller than the rest of column
//!   0. After phase 5 the sequence is sorted up to local disorder of width
//!   `< m − r`, so every wrapped key (the last r/2 positions) is ≥ every key
//!   in the first r/2 positions. Sorting column 0 *normally* therefore puts
//!   the wrapped block contiguously on top, and the "−∞" behaviour is
//!   recovered by a column-0-aware inverse shift in phase 8 — no tags, which
//!   matters because tags would not survive the *recursive* phase-7 sorts
//!   (their own phases 6–8 would clobber them).
//!
//! [`BitonicSort`] is the one-level baseline: `Θ(log² n)` compare-exchange
//! supersteps, `H = Θ((n/p)·log p·log n + σ·log²n)` — asymptotically worse
//! than Columnsort for `p = n^{Ω(1)}`.

use crate::common::ilog2;
use nob_machine::{Ctx, InCluster, Inbox, NobAlgorithm, Program, Route, Xor};

/// Trait bound bundle for sortable keys.
pub trait SortKey: Ord + Clone + Send + Sync + Default + std::fmt::Debug + 'static {}
impl<K: Ord + Clone + Send + Sync + Default + std::fmt::Debug + 'static> SortKey for K {}

/// Base-case threshold: segments of at most this many VPs sort by
/// gather/sort/scatter (degree ≤ 32 = O(1)).
const BASE: usize = 32;

/// The column length `r` used for an m-key Columnsort instance:
/// `2^{⌊2·log m/3⌋+1}`, between `2^{1/3}·m^{2/3}` and `2·m^{2/3}` (clamped
/// so that `s = m/r ≥ 2`). Not always `≥ 2·m^{2/3}`: `m = 128` takes `r =
/// 32 < 50.8`, where Leighton's condition still holds (`2(s−1)² = 18`).
pub fn column_len(m: usize) -> usize {
    let lm = ilog2(m) as usize;
    1usize << ((2 * lm / 3 + 1).min(lm - 1))
}

/// Leighton's correctness condition for an `r×s` Columnsort step.
pub fn leighton_ok(r: usize, s: usize) -> bool {
    s >= 2 && r >= 2 * (s - 1) * (s - 1)
}

// --------------------------------------------------------------------------
// Phase permutations (positions are column-major linear ranks within the
// m-key instance: q ↔ (row q mod r, column q div r)). `r = 2^lr` and `s =
// 2^ls` are powers of two, so each is shifts and masks.
// --------------------------------------------------------------------------

/// Phase 2: pick up in column-major order, deposit in row-major order.
#[inline]
fn transpose(q: usize, lr: u32, ls: u32) -> usize {
    (q & ((1 << ls) - 1)) << lr | q >> ls
}

/// Phase 4: the inverse "diagonalizing" permutation.
#[inline]
fn untranspose(q: usize, lr: u32, ls: u32) -> usize {
    (q & ((1 << lr) - 1)) << ls | q >> lr
}

/// Phase 6: cyclic shift down by r/2 (footnote 6 of the paper).
#[inline]
fn shift(q: usize, lr: u32, ls: u32) -> usize {
    (q + (1 << lr >> 1)) & ((1 << (lr + ls)) - 1)
}

/// Phase 8: inverse shift, with the column-0 fix-up implementing the
/// wrapped-keys-as-−∞ convention (see module docs): after the normal phase-7
/// sort, column 0 holds the globally smallest r/2 keys followed by the r/2
/// wrapped (largest) keys.
#[inline]
fn unshift_fix(q: usize, lr: u32, ls: u32) -> usize {
    let (r, m) = (1 << lr, 1 << (lr + ls));
    if q < r / 2 {
        q // column-0 lower part: already in final position
    } else if q < r {
        m - r + q // column-0 upper part: the wrapped keys go back to the tail
    } else {
        q - r / 2 // other columns: plain inverse shift
    }
}

// --------------------------------------------------------------------------
// Sequential reference (same phases; the executable specification the
// superstep program is tested against).
// --------------------------------------------------------------------------

/// Sequential recursive Columnsort.
pub fn columnsort_seq<K: SortKey>(items: &mut [K]) {
    let m = items.len();
    if m <= BASE {
        items.sort();
        return;
    }
    let r = column_len(m);
    let s = m / r;
    debug_assert!(leighton_ok(r, s), "r = {r}, s = {s}");
    let (lr, ls) = (ilog2(r), ilog2(s));
    let sort_columns = |v: &mut [K]| {
        for col in v.chunks_mut(r) {
            columnsort_seq(col);
        }
    };
    fn permute<K: Clone>(v: &mut [K], lr: u32, ls: u32, f: impl Fn(usize, u32, u32) -> usize) {
        let mut out: Vec<K> = v.to_vec();
        for (q, item) in v.iter().enumerate() {
            out[f(q, lr, ls)] = item.clone();
        }
        v.clone_from_slice(&out);
    }
    sort_columns(items); // 1
    permute(items, lr, ls, transpose); // 2
    sort_columns(items); // 3
    permute(items, lr, ls, untranspose); // 4
    sort_columns(items); // 5
    permute(items, lr, ls, shift); // 6
    sort_columns(items); // 7
    permute(items, lr, ls, unshift_fix); // 8
}

// --------------------------------------------------------------------------
// The network-oblivious superstep program.
// --------------------------------------------------------------------------

/// Recursive Columnsort on `M(n)` (one key per VP). Supports every power of
/// two `n ≥ 2`.
#[derive(Debug, Clone)]
pub struct ColumnSort<K> {
    /// Emit wiseness dummy messages (default: true).
    pub wise: bool,
    _marker: std::marker::PhantomData<K>,
}

impl<K> Default for ColumnSort<K> {
    fn default() -> Self {
        ColumnSort { wise: true, _marker: std::marker::PhantomData }
    }
}

impl<K> ColumnSort<K> {
    /// Creates the algorithm, choosing whether to emit wiseness dummies.
    pub fn new(wise: bool) -> Self {
        ColumnSort { wise, _marker: std::marker::PhantomData }
    }
}

/// Replaces the held key if a permutation/scatter delivered a new one.
fn ingest_item<K: SortKey>(st: &mut K, inbox: &mut Inbox<'_, K>) {
    debug_assert!(inbox.len() <= 1, "at most one key per VP outside gather");
    if let Some(item) = inbox.pop() {
        *st = item;
    }
}

/// The sub-schedules emitted so far, by segment size: `(m, entries)` with
/// `entries` the [`Program::steps`] range [`emit_sort`] laid down for `m`.
type Emitted = Vec<(usize, std::ops::Range<usize>)>;

/// Emits the schedule sorting every aligned m-segment ascending. The
/// sub-program for an `m`-segment is a function of `(n, m)` only — labels,
/// routes and bodies are the same at every call — so the first call for a
/// size compiles its steps and every later one repeats those schedule
/// entries by reference ([`Program::repeat`]): `n = 4096` schedules 213
/// supersteps over 15 compiled ones.
fn emit_sort<K: SortKey>(
    prog: &mut Program<K, K>,
    n: usize,
    m: usize,
    wise: bool,
    emitted: &mut Emitted,
) {
    if let Some((_, entries)) = emitted.iter().find(|(size, _)| *size == m) {
        prog.repeat(entries.clone());
        return;
    }
    let first = prog.steps().len();
    compile_sort(prog, n, m, wise, emitted);
    emitted.push((m, first..prog.steps().len()));
}

/// Compiles the steps of [`emit_sort`]'s sub-program for segment size `m`.
fn compile_sort<K: SortKey>(
    prog: &mut Program<K, K>,
    n: usize,
    m: usize,
    wise: bool,
    emitted: &mut Emitted,
) {
    let log_v = ilog2(n);
    let label = log_v - ilog2(m);
    if m <= BASE {
        // Gather to the segment leader… (static fan-in: every non-leader
        // sends its key to the leader — data-independent destinations).
        prog.step_oblivious(
            label,
            "sort-gather",
            1,
            InCluster::new(m, 1, 0, |off, _| if off == 0 { Route::End } else { Route::Data(0) }),
            move |st: &mut K, ctx, inbox, out| {
                ingest_item(st, inbox);
                if ctx.vp & (m - 1) != 0 {
                    out.send(st.clone());
                }
            },
        );
        // …sort locally, scatter back (static fan-out: the leader sends one
        // key to each segment position — only the *payloads* depend on the
        // data, never the destinations). Non-leaders send nothing at all:
        // End (not Skip) keeps this wide fan-out O(1) per idle VP.
        prog.step_oblivious(
            label,
            "sort-scatter",
            m - 1,
            InCluster::new(
                m,
                m - 1,
                0,
                |off, k| {
                    if off == 0 {
                        Route::Data(k + 1)
                    } else {
                        Route::End
                    }
                },
            ),
            move |st: &mut K, ctx, inbox, out| {
                if ctx.vp & (m - 1) == 0 {
                    // The segment fits a fixed array (m ≤ BASE), so a leader
                    // sorts without touching the heap: gathered keys in
                    // arrival order, its own key last, the rest left default.
                    let mut all: [K; BASE] = std::array::from_fn(|_| K::default());
                    let mut len = 0;
                    for item in inbox.drain(..).chain([std::mem::take(st)]) {
                        all[len] = item;
                        len += 1;
                    }
                    all[..len].sort();
                    let mut sorted = all.into_iter().take(len);
                    *st = sorted.next().expect("segment non-empty");
                    for item in sorted {
                        out.send(item);
                    }
                } else {
                    inbox.clear();
                }
            },
        );
        return;
    }

    let r = column_len(m);
    let s = m / r;
    debug_assert!(leighton_ok(r, s), "r = {r}, s = {s} at m = {m}");

    let (lr, ls) = (ilog2(r), ilog2(s));
    let dummies = usize::from(wise);
    emit_sort(prog, n, r, wise, emitted); // 1
    permute(prog, label, "sort-transpose", dummies, move |q| transpose(q, lr, ls)); // 2
    emit_sort(prog, n, r, wise, emitted); // 3
    permute(prog, label, "sort-untranspose", dummies, move |q| untranspose(q, lr, ls)); // 4
    emit_sort(prog, n, r, wise, emitted); // 5
    permute(prog, label, "sort-shift", dummies, move |q| shift(q, lr, ls)); // 6
    emit_sort(prog, n, r, wise, emitted); // 7
    permute(prog, label, "sort-unshift", dummies, move |q| unshift_fix(q, lr, ls));
    // 8
}

/// Emits a phase permutation `f` of every `label`-cluster, then the
/// wiseness dummies.
fn permute<K: SortKey>(
    prog: &mut Program<K, K>,
    label: u32,
    name: &'static str,
    dummies: usize,
    f: impl Fn(usize) -> usize + Send + Sync + 'static,
) {
    prog.step_oblivious(
        label,
        name,
        1 + dummies,
        InCluster::new(prog.v() >> label, 1, dummies, move |off, _| Route::Data(f(off))),
        |st: &mut K, _, inbox, out| {
            ingest_item(st, inbox);
            out.send(st.clone());
        },
    );
}

impl<K: SortKey> NobAlgorithm for ColumnSort<K> {
    type State = K;
    type Msg = K;
    type Input = [K];
    type Output = Vec<K>;

    fn name(&self) -> String {
        format!("sort-columnsort(wise={})", self.wise)
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[K]) -> Vec<K> {
        assert!(n.is_power_of_two() && n >= 2, "n must be a power of two");
        assert_eq!(input.len(), n);
        input.to_vec()
    }

    fn build(&self, n: usize) -> Program<K, K> {
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        emit_sort(&mut prog, n, n, self.wise, &mut Vec::new());
        prog.step_oblivious(
            log_v - 1,
            "sort-finalize",
            0,
            |_: &Ctx, _| Route::Skip,
            |st, _ctx, inbox, _out| {
                ingest_item(st, inbox);
            },
        );
        prog
    }

    fn extract(&self, _n: usize, states: Vec<K>) -> Vec<K> {
        states
    }
}

// --------------------------------------------------------------------------
// Bitonic baseline.
// --------------------------------------------------------------------------

/// Batcher's bitonic sorting network on `M(n)`: stage `k` merges bitonic runs
/// of length `2^k`; the substage exchanging at bit `j` is a
/// `(log n − 1 − j)`-superstep. The flat class-C baseline for Thm 4.8.
#[derive(Debug, Clone, Default)]
pub struct BitonicSort<K> {
    _marker: std::marker::PhantomData<K>,
}

/// Completes the compare-exchange of substage `(k, j)`.
fn bitonic_combine<K: SortKey>(st: &mut K, ctx: &Ctx, inbox: &mut Inbox<'_, K>, k: u32, j: u32) {
    let other = inbox.pop().expect("bitonic partner key");
    let ascending = ctx.vp >> (k as usize) & 1 == 0;
    let upper = ctx.vp >> (j as usize) & 1 == 1;
    let keep_max = ascending == upper;
    if (other > *st) == keep_max {
        *st = other;
    }
}

impl<K: SortKey> NobAlgorithm for BitonicSort<K> {
    type State = K;
    type Msg = K;
    type Input = [K];
    type Output = Vec<K>;

    fn name(&self) -> String {
        "sort-bitonic".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[K]) -> Vec<K> {
        assert!(n.is_power_of_two() && n >= 2);
        assert_eq!(input.len(), n);
        input.to_vec()
    }

    fn build(&self, n: usize) -> Program<K, K> {
        let mut prog = Program::new(n, n);
        let log_n = prog.log_v();
        let mut pending: Option<(u32, u32)> = None;
        for k in 1..=log_n {
            for j in (0..k).rev() {
                let p = pending;
                let label = log_n - 1 - j;
                prog.step_oblivious(
                    label,
                    "bitonic-exchange",
                    1,
                    Xor(1 << j),
                    move |st: &mut K, ctx, inbox, out| {
                        if let Some((pk, pj)) = p {
                            bitonic_combine(st, ctx, inbox, pk, pj);
                        }
                        out.send(st.clone());
                    },
                );
                pending = Some((k, j));
            }
        }
        let p = pending;
        prog.step_oblivious(
            log_n - 1,
            "bitonic-finalize",
            0,
            |_: &Ctx, _| Route::Skip,
            move |st, ctx, inbox, _out| {
                if let Some((pk, pj)) = p {
                    bitonic_combine(st, ctx, inbox, pk, pj);
                }
            },
        );
        prog
    }

    fn extract(&self, _n: usize, states: Vec<K>) -> Vec<K> {
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::folding::executed_folding;
    use nob_core::lower_bounds;
    use nob_machine::{execute, RunOptions};

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn column_len_satisfies_leighton_at_every_level() {
        let mut m = 64usize;
        while m <= 1 << 22 {
            let r = column_len(m);
            let s = m / r;
            assert!(leighton_ok(r, s), "m={m}: r={r}, s={s}");
            assert!(r < m, "must recurse on smaller instances");
            // r = Θ(m^{2/3}): within [2^{1/3}·m^{2/3}, 2·m^{2/3}], both ends
            // reached (up to rounding).
            let ratio = r as f64 / (m as f64).powf(2.0 / 3.0);
            assert!(ratio >= 2f64.cbrt() - 1e-9 && ratio <= 2.0 + 1e-9, "m={m}: r={r}");
            m *= 2;
        }
    }

    #[test]
    fn sequential_columnsort_sorts_random_and_adversarial_inputs() {
        let mut rng = xorshift(99);
        for &m in &[64usize, 128, 512, 1024, 4096] {
            // Random u64 keys.
            for trial in 0..8 {
                let mut items: Vec<u64> = (0..m).map(|_| rng()).collect();
                let mut want = items.clone();
                want.sort();
                columnsort_seq(&mut items);
                assert_eq!(items, want, "m={m} trial={trial}");
            }
            // Random 0-1 inputs (the hard cases by the 0-1 principle).
            for trial in 0..64 {
                let mut items: Vec<u64> = (0..m).map(|_| rng() & 1).collect();
                let mut want = items.clone();
                want.sort();
                columnsort_seq(&mut items);
                assert_eq!(items, want, "0-1 m={m} trial={trial}");
            }
            // Reverse-sorted input.
            let mut rev: Vec<u64> = (0..m as u64).rev().collect();
            columnsort_seq(&mut rev);
            assert!(rev.windows(2).all(|w| w[0] <= w[1]), "reverse m={m}");
        }
    }

    #[test]
    fn distributed_columnsort_matches_std_sort() {
        let mut rng = xorshift(7);
        for &n in &[2usize, 16, 64, 128, 512] {
            let keys: Vec<u64> = (0..n).map(|_| rng() % 10_000).collect();
            let mut want = keys.clone();
            want.sort();
            let alg = ColumnSort::<u64>::default();
            let (got, _) = execute(&alg, n, &keys[..], &RunOptions::default()).unwrap();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn distributed_columnsort_handles_duplicates_and_extremes() {
        let n = 256;
        let keys: Vec<u64> = (0..n).map(|i| [0, u64::MAX, 42, 42][i % 4]).collect();
        let mut want = keys.clone();
        want.sort();
        let alg = ColumnSort::<u64>::default();
        let (got, _) = execute(&alg, n, &keys[..], &RunOptions::default()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn folding_preserves_output_and_metrics() {
        let mut rng = xorshift(3);
        let n = 128;
        let keys: Vec<u64> = (0..n).map(|_| rng()).collect();
        let alg = ColumnSort::<u64>::default();
        let (full, full_trace) = execute(&alg, n, &keys[..], &RunOptions::default()).unwrap();
        for p in [2usize, 8, 32, 128] {
            let (out, trace) = executed_folding(&alg, n, &keys[..], p);
            assert_eq!(out, full);
            let mut q = 2;
            while q <= p {
                assert_eq!(trace.fold(q), full_trace.fold(q));
                q *= 2;
            }
        }
    }

    #[test]
    fn bitonic_matches_std_sort() {
        let mut rng = xorshift(17);
        for &n in &[2usize, 8, 64, 256, 1024] {
            let keys: Vec<u64> = (0..n).map(|_| rng() % 1000).collect();
            let mut want = keys.clone();
            want.sort();
            let alg = BitonicSort::<u64>::default();
            let (got, _) = execute(&alg, n, &keys[..], &RunOptions::default()).unwrap();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn communication_complexity_matches_theorem_4_8() {
        let mut rng = xorshift(23);
        let n = 4096;
        let keys: Vec<u64> = (0..n).map(|_| rng()).collect();
        let alg = ColumnSort::<u64>::new(false);
        let (_, trace) = execute(&alg, n, &keys[..], &RunOptions::default()).unwrap();
        for p in [4usize, 64, 256] {
            let measured = trace.comm_complexity(p, 0.0);
            let theory = lower_bounds::upper::sort(n, p, 0.0);
            let ratio = measured / theory;
            assert!(ratio > 0.05 && ratio < 20.0, "p={p}: measured/theory = {ratio}");
        }
        // Against Lemma 4.7's Ω(n·log n/(p·log(n/p)) + σ) the factor grows
        // with p like Thm 4.8's (log n/log(n/p))^{log_{3/2} 4}: 1.2 at p = 2,
        // 185 at p = 2048 and σ = 16, the maximum on this grid.
        for p in [2usize, 8, 32, 128, 512, 2048] {
            for sigma in [0.0, 16.0] {
                let ratio = trace.comm_complexity(p, sigma) / lower_bounds::sort(n, p, sigma);
                assert!(ratio < 256.0, "p={p} sigma={sigma}: measured/LB = {ratio}");
            }
        }
    }

    /// Number of supersteps that still communicate after folding onto p
    /// processors — read straight off the static schedule (no execution
    /// needed). For both sorts every such superstep moves Θ(n/p) keys per
    /// processor, so this count is the H(n, p, 0)/(n/p) shape.
    /// Supersteps of a label schedule that cross processors on `M(p)`.
    fn crossing_steps(labels: &[u32], p: usize) -> usize {
        let log_p = p.trailing_zeros();
        labels.iter().filter(|&&l| l < log_p).count()
    }

    /// The label schedule [`emit_sort`] lays down for every aligned
    /// m-segment, without compiling a single route: the schedule depends on
    /// `(n, m)` only.
    fn columnsort_labels(n: usize, m: usize, out: &mut Vec<u32>) {
        let label = ilog2(n) - ilog2(m);
        if m <= BASE {
            out.extend([label; 2]); // gather, scatter
            return;
        }
        for _ in 0..4 {
            columnsort_labels(n, column_len(m), out); // sort columns…
            out.push(label); // …then permute
        }
    }

    /// [`ColumnSort::build`]'s label schedule.
    fn columnsort_schedule(n: usize) -> Vec<u32> {
        let mut labels = Vec::new();
        columnsort_labels(n, n, &mut labels);
        labels.push(ilog2(n) - 1); // finalize
        labels
    }

    /// [`BitonicSort::build`]'s label schedule.
    fn bitonic_schedule(n: usize) -> Vec<u32> {
        let log_n = ilog2(n);
        let mut labels: Vec<u32> =
            (1..=log_n).flat_map(|k| (0..k).rev().map(move |j| log_n - 1 - j)).collect();
        labels.push(log_n - 1); // finalize
        labels
    }

    #[test]
    fn build_compiles_each_distinct_superstep_once() {
        // Sharing changes what is stored, never what is scheduled.
        for n in [64usize, 512, 4096] {
            for wise in [true, false] {
                let prog = ColumnSort::<u64>::new(wise).build(n);
                assert_eq!(prog.labels(), columnsort_schedule(n), "n={n} wise={wise}");
                assert_eq!(prog.planned_steps(), prog.steps().len(), "n={n} wise={wise}");
            }
        }
        // 213 entries over 15 compiled steps: every base-case gather is the
        // one plan, and what is resident is kilobytes.
        let prog = ColumnSort::<u64>::default().build(4096);
        let gathers: Vec<_> = prog.steps().iter().filter(|s| s.name == "sort-gather").collect();
        assert_eq!((prog.steps().len(), gathers.len()), (213, 64));
        let plan_of =
            |s: &nob_machine::Superstep<u64, u64>| std::ptr::from_ref(s.plan().expect("declared"));
        assert_eq!(plan_of(gathers[0]), plan_of(gathers[63]));
        assert!(prog.plan_bytes() <= 36_000, "{} plan bytes", prog.plan_bytes());
    }

    #[test]
    fn converted_steps_compile_to_their_closure_plans() {
        use crate::common::parent_routes::{assert_parent_plans, wiseness, Closure};
        for n in [512usize, 4096] {
            for wise in [true, false] {
                let prog = ColumnSort::<u64>::new(wise).build(n);
                // The routes as closures on every VP, with `%` and `/`.
                let parent = |name: &str, label: u32| -> Option<(usize, Closure)> {
                    let m = n >> label;
                    let (r, s) = (column_len(m), m / column_len(m));
                    let perm: fn(usize, usize, usize, usize) -> usize = match name {
                        "sort-gather" => {
                            let gather = move |ctx: &Ctx, _| match ctx.vp % m {
                                0 => Route::End,
                                off => Route::Data(ctx.vp - off),
                            };
                            return Some((1, Box::new(gather)));
                        }
                        "sort-scatter" => {
                            let scatter = move |ctx: &Ctx, k| match ctx.vp % m {
                                0 => Route::Data(ctx.vp + k + 1),
                                _ => Route::End,
                            };
                            return Some((m - 1, Box::new(scatter)));
                        }
                        "sort-transpose" => |q, r, s, _| (q % s) * r + q / s,
                        "sort-untranspose" => |q, r, s, _| (q % r) * s + q / r,
                        "sort-shift" => |q, r, _, m| (q + r / 2) % m,
                        "sort-unshift" => |q, r, _, m| match q {
                            q if q < r / 2 => q,
                            q if q < r => m - r + q,
                            q => q - r / 2,
                        },
                        _ => return None,
                    };
                    let dummies = usize::from(wise);
                    let route = move |ctx: &Ctx, k| {
                        if k > 0 {
                            return wiseness(ctx, label, dummies, k - 1);
                        }
                        let base = ctx.vp - ctx.vp % m;
                        Route::Data(base + perm(ctx.vp - base, r, s, m))
                    };
                    Some((1 + dummies, Box::new(route)))
                };
                let converted = prog.steps().len() - 1; // all but the finalize
                assert_eq!(assert_parent_plans(&prog, parent), converted, "n {n} wise {wise}");
            }
        }
    }

    #[test]
    fn shared_steps_execute_like_unshared_ones_at_every_width() {
        // The planned run over shared plans, the same program with plans
        // off, and the seed engine agree on states, trace and message log.
        let mut rng = xorshift(41);
        let n = 4096;
        let states: Vec<u64> = (0..n).map(|_| rng()).collect();
        let prog = ColumnSort::<u64>::default().build(n);
        let oracle =
            nob_machine::reference::run_reference(&prog, states.clone(), &RunOptions::with_log())
                .unwrap();
        for w in [1usize, 2, 4] {
            let planned = RunOptions { workers: Some(w), ..RunOptions::with_log() };
            let dynamic = RunOptions { use_plans: false, ..planned.clone() };
            for (what, opts) in [("planned", planned), ("dynamic", dynamic)] {
                let got = nob_machine::run(&prog, states.clone(), &opts).unwrap();
                assert_eq!(got.states, oracle.states, "{what} states at {w} workers");
                assert_eq!(got.trace, oracle.trace, "{what} trace at {w} workers");
                assert_eq!(got.message_log, oracle.message_log, "{what} log at {w} workers");
            }
        }
    }

    #[test]
    fn columnsort_bitonic_crossover() {
        // Columnsort's crossing-superstep count is (log n/log(n/p))^{log_{3/2}4}
        // — constant for p = n^{1−δ} — while bitonic's grows like
        // log p·(log n − log p). The constants favour bitonic at small n; the
        // crossover for δ = 1/2 lies between n = 2^12 and 2^14. We (a) verify
        // that the static schedule predicts the *measured* H at a simulable
        // size, and (b) locate the crossover from the schedules alone
        // (programs are static, so the schedule is the ground truth for S^i).
        let col = ColumnSort::<u64>::new(false);
        let bit = BitonicSort::<u64>::default();

        // (a) Schedule-predicted shape matches measured H at n = 4096, p = 64
        // — and the label-only schedules are the built programs' own.
        let mut rng = xorshift(31);
        let n = 4096;
        let p = 64;
        assert_eq!(columnsort_schedule(n), col.build(n).labels());
        assert_eq!(bitonic_schedule(n), bit.build(n).labels());
        let keys: Vec<u64> = (0..n).map(|_| rng()).collect();
        let (_, t_col) = execute(&col, n, &keys[..], &RunOptions::default()).unwrap();
        let (_, t_bit) = execute(&bit, n, &keys[..], &RunOptions::default()).unwrap();
        let per_proc = (n / p) as f64;
        let col_steps = crossing_steps(&columnsort_schedule(n), p);
        let bit_steps = crossing_steps(&bitonic_schedule(n), p);
        for (t, alg_steps, name) in
            [(&t_col, col_steps, "columnsort"), (&t_bit, bit_steps, "bitonic")]
        {
            let measured = t.comm_complexity(p, 0.0);
            let predicted = alg_steps as f64 * per_proc;
            let ratio = measured / predicted;
            assert!(
                ratio > 0.3 && ratio < 1.5,
                "{name}: measured {measured} vs predicted {predicted}"
            );
        }
        // Below the crossover, bitonic's smaller step count wins.
        assert!(bit_steps < col_steps);

        // (b) The crossover at p = n^{1/2}: from n = 2^14 on, the oblivious
        // recursion's constant 20 crossing supersteps beat bitonic's
        // log p·(log n − log p) growth (28 at n = 2^14, 55 at n = 2^20).
        // Read off the label schedules: building the programs would compile
        // every `StepPlan` for 2^22 VPs only to throw it away. Rows are
        // (log n, (columnsort, bitonic)).
        let rows = [
            (12u32, (84, 21)),
            (14, (20, 28)),
            (16, (20, 36)),
            (18, (20, 45)),
            (20, (20, 55)),
            (22, (20, 66)),
        ];
        for (lg, want) in rows {
            let (n, p) = (1usize << lg, 1usize << (lg / 2));
            let c = crossing_steps(&columnsort_schedule(n), p);
            let b = crossing_steps(&bitonic_schedule(n), p);
            assert_eq!((c, b), want, "n = 2^{lg}, p = 2^{}", lg / 2);
        }
    }
}
