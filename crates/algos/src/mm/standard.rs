//! The 8-way recursive network-oblivious MM algorithm (Section 4.1).
//!
//! Specified on `M(n)`. The recursion at level `t` partitions each segment of
//! `V_t = n/8^t` VPs into eight subsegments `S_{hkl}`, replicates the operand
//! quadrants so that `S_{hkl}` receives `A_{hl}` and `B_{lk}`, recurses, and
//! finally sums `C_{hk} = M_{hk0} + M_{hk1}` at the level-`t` owners of `C`.
//! Each level contributes `O(1)` supersteps of label `3t` in which every VP
//! sends/receives `O(2^t)` messages; the recursion bottoms out at
//! `τ = (log n)/3`, where each VP multiplies its `n^{1/6}×n^{1/6}` blocks
//! sequentially (computing `n^{1/3}` of the `n^{3/2}` multiplicative terms).
//!
//! Theorem 4.2: `H_MM(n, p, σ) = O(n/p^{2/3} + σ·log p)`; with the dummy
//! messages (`wise: true`, the default) the algorithm is `(Θ(1), n)`-wise and
//! `Θ(1)`-optimal for `σ = O(n/(p^{2/3}·log p))`.
//!
//! # A static algorithm, declared end to end
//!
//! The communication of this algorithm is a function of `n` alone, and the
//! program says so: all `2τ + 1` supersteps are
//! [`Program::step_oblivious`]. What makes every route a closed form is the
//! data layout. At level `t` a segment's submatrix (side `√n/2^t`) is spread
//! row-major over the segment, `2^t` consecutive entries per VP, so the entry
//! with sub-local row-major index `e` belongs to VP `segment base + (e >> t)`
//! as its *slot* `e & (2^t − 1)`. The `k`-th send of a step carries a fixed
//! slot to a destination that is a function of `(vp, k)` only — `Geometry`
//! holds one destination helper per direction, which the declared route
//! calls; the step bodies only say what they send, in slot order. Every
//! VP receives the same number of payloads in every step, so each plan is an
//! `O(1)` [`nob_machine::plan::PlanLayout::Uniform`] summary.
//!
//! # The blow-up is in flight only
//!
//! Replicating quadrants down the recursion gives a VP `2·2^t` operand
//! entries at level `t` — `Θ(n^{1/3})` at the bottom — but only *between two
//! supersteps*. So that is the only place they are kept: the slots of a level
//! are the messages of one **inbox**, and a VP at rest owns its entry of `A`,
//! of `B` and finally of `C` ([`MmState`]), nothing more. `D_0` sends from
//! the state; every later `D_t` forwards each operand message it received
//! unchanged, twice; the base step multiplies straight out of its inbox;
//! each `K_t` sends the sum of the two partial products of each `C` slot; and
//! `mm-finalize` adds its two arrivals into the state. The engine's message
//! arenas are the algorithm's working memory, and nothing copies them.
//!
//! # An entry is named by its inbox position
//!
//! A message is the bare semiring value — no tag, no coordinates — because
//! where each slot's message lands is as static as its route. The engine
//! delivers in one order on every path, ascending source VP and then send
//! order ([`nob_machine::Inbox`]), and every send here is a function of `n`
//! alone. That order interleaves `A` with `B`, and — because a VP's
//! consecutive entries can straddle quadrants — one child segment's entries
//! with another's, and the two products of a `C` slot arrive with other
//! slots' in between; but it depends only on the receiver's child digit
//! (operands) or not on the receiver at all (partial products). So `build`
//! enumerates each level's declared routes once, over the first parent
//! segment, and keeps the inbox position of every slot on the first VP of
//! each child segment (`Positions`, ≈ 1 KB at `n = 4096`, one `Arc` shared
//! by the bodies). The bodies read `inbox.as_slice()` through those tables
//! and issue their sends in slot order — the order the declared routes, and
//! so every plan, trace and message log, are defined by.

use super::MmInput;
use crate::common::wiseness_route;
use crate::semiring::{Matrix, Semiring};
use nob_machine::{Ctx, NobAlgorithm, Program, Route};
use std::marker::PhantomData;
use std::sync::Arc;

/// Per-VP state at rest: the VP's one entry of `A` and its one entry of `B`
/// — the layout the paper prescribes for inputs and outputs. Nothing else is
/// ever stored here: the operand replicas and partial products of the
/// recursion live only as bare values in the message arenas (see the module
/// docs), so a clone of the states costs 16 bytes per VP for an 8-byte
/// semiring, whatever `n` is.
#[derive(Debug, Clone, PartialEq)]
pub struct MmState<V> {
    /// The VP's entry of `A`; `mm-finalize` replaces it by its entry of `C`.
    a: V,
    /// The VP's entry of `B`.
    b: V,
}

/// The index arithmetic of the recursion for one problem size. Everything
/// is a power of two — `n = 8^τ` VPs, matrix side `2^log_s`, level-`t`
/// segments of `8^{τ−t}` VPs owning submatrices of side `2^{log_s−t}` — so
/// it is all shifts and masks on the VP index.
#[derive(Debug, Clone, Copy)]
struct Geometry {
    /// `log2 √n`.
    log_s: u32,
    /// Recursion depth `τ = log_8 n`.
    tau: u32,
}

impl Geometry {
    fn new(n: usize) -> Self {
        let log_n = n.trailing_zeros();
        Geometry { log_s: log_n / 2, tau: log_n / 3 }
    }

    /// `log2` of the submatrix side at level `t`.
    fn log_side(self, t: u32) -> u32 {
        self.log_s - t
    }

    /// `log2` of the segment size at level `t`.
    fn log_seg(self, t: u32) -> u32 {
        3 * (self.tau - t)
    }

    /// Sub-local `(row, column)` of the entry in slot `p` of `vp` at level
    /// `t`.
    fn local(self, t: u32, vp: usize, p: usize) -> (usize, usize) {
        let e = (vp & ((1 << self.log_seg(t)) - 1)) << t | p;
        let bits = self.log_side(t);
        (e >> bits, e & ((1 << bits) - 1))
    }

    /// Operand messages each VP sends in `D_t`: two replicas of each of its
    /// `2^t` entries of `A`, then the same for `B`.
    fn replicas(t: u32) -> usize {
        4 << t
    }

    /// The `k`-th operand message of `vp` in `D_t` (`k < replicas(t)`): its
    /// destination and the slot it fills there. Message `k` of either
    /// operand carries the entry in slot `k >> 1` to the child segment
    /// picked by replica bit `k & 1` — `A_{hl}` goes to `S_{h·l}`, `B_{lk}`
    /// to `S_{·kl}` — where its row-major index `e` in the child's quadrant
    /// makes it slot `e mod 2^{t+1}` of VP `e >> (t + 1)`.
    fn replica(self, t: u32, vp: usize, k: usize) -> (usize, usize) {
        let per_operand = Self::replicas(t) / 2;
        let (li, lj) = self.local(t, vp, (k & (per_operand - 1)) >> 1);
        let r = k & 1;
        let half_bits = self.log_side(t + 1);
        let (hi, lo) = (li >> half_bits, lj >> half_bits);
        let digit = if k < per_operand { hi << 2 | r << 1 | lo } else { r << 2 | lo << 1 | hi };
        let mask = (1 << half_bits) - 1;
        let e = (li & mask) << half_bits | (lj & mask);
        let seg = self.log_seg(t);
        let child = (vp >> seg << seg) + (digit << self.log_seg(t + 1));
        (child + (e >> (t + 1)), e & ((2 << t) - 1))
    }

    /// Destination of the `k`-th operand message of `vp` in `D_t`.
    ///
    /// Forced inline, like [`Geometry::product_dst`]: `StepPlan::compile`
    /// calls the route once per declared send, and left to itself the
    /// compiler calls this out of line there, which made `build` at
    /// `n = 4096` ≈ 3.1 → 4.3 ms on a 2-vCPU Xeon VM.
    #[inline(always)]
    fn replica_dst(self, t: u32, vp: usize, k: usize) -> usize {
        self.replica(t, vp, k).0
    }

    /// The `C` entry in slot `p` of `vp` at level `t ≥ 1`: its level-`t − 1`
    /// owner and the slot it fills there. The `(h, k)` digits of `vp`'s
    /// child segment place its `C_{hk}` quadrant inside the parent's `C`.
    fn product(self, t: u32, vp: usize, p: usize) -> (usize, usize) {
        let (li, lj) = self.local(t, vp, p);
        let bits = self.log_side(t);
        let digit = vp >> self.log_seg(t) & 7;
        let e = ((digit >> 2) << bits | li) << (bits + 1) | (digit >> 1 & 1) << bits | lj;
        let parent = self.log_seg(t - 1);
        ((vp >> parent << parent) + (e >> (t - 1)), e & ((1 << (t - 1)) - 1))
    }

    /// The level-`t − 1` owner of the `C` entry in slot `p` of `vp`.
    #[inline(always)]
    fn product_dst(self, t: u32, vp: usize, p: usize) -> usize {
        self.product(t, vp, p).0
    }
}

/// Where each slot's message sits in a VP's inbox, for every step that reads
/// one: derived once, in `build`, from the declared routes (see the module
/// docs), and shared by the step bodies.
///
/// The operand table of level `t ∈ 1..=τ` and child digit `d` — arrival
/// order is a function of the receiver's digit `vp >> 3(τ − t) & 7` alone —
/// holds the inbox positions of the VP's `2^t` slots of `A`, then of its
/// `2^t` slots of `B`. The product table of level `t ∈ 1..τ` — the same for
/// every VP — holds the first and the second arrival of each `C` slot,
/// interleaved.
struct Positions {
    geo: Geometry,
    operands: Box<[u16]>,
    products: Box<[u16]>,
}

impl Positions {
    /// Where the operand table of level `t` and child digit `digit` starts:
    /// each level `s < t` holds eight tables of `2·2^s` entries.
    fn operand_at(t: u32, digit: usize) -> usize {
        16 * ((1 << t) - 2) + (digit << (t + 1))
    }

    /// Where the product table of level `t` starts: each level `s < t`
    /// holds `2·2^s` entries.
    fn product_at(t: u32) -> usize {
        2 * ((1 << t) - 2)
    }

    /// Replays each level's sends in the engine's delivery order —
    /// ascending source, then send order — over the first parent segment,
    /// and numbers what reaches the first VP of each child segment.
    fn new(geo: Geometry) -> Self {
        let tau = geo.tau;
        let mut operands = vec![0; Self::operand_at(tau + 1, 0)].into_boxed_slice();
        for t in 1..=tau {
            let (child, per_operand) = (geo.log_seg(t), Geometry::replicas(t - 1) / 2);
            let mut arrived = [0u16; 8];
            for src in 0..1 << geo.log_seg(t - 1) {
                for k in 0..Geometry::replicas(t - 1) {
                    let (dst, slot) = geo.replica(t - 1, src, k);
                    if dst & ((1 << child) - 1) == 0 {
                        let digit = dst >> child;
                        let b = usize::from(k >= per_operand) << t;
                        operands[Self::operand_at(t, digit) + b + slot] = arrived[digit];
                        arrived[digit] += 1;
                    }
                }
            }
        }
        // `u16::MAX`: the slot has had no arrival yet.
        let mut products = vec![u16::MAX; Self::product_at(tau)].into_boxed_slice();
        for t in 1..tau {
            let mut arrived = 0;
            for src in 0..1 << geo.log_seg(t) {
                for p in 0..1 << (t + 1) {
                    let (dst, slot) = geo.product(t + 1, src, p);
                    if dst == 0 {
                        let first = Self::product_at(t) + 2 * slot;
                        products[first + usize::from(products[first] != u16::MAX)] = arrived;
                        arrived += 1;
                    }
                }
            }
        }
        Positions { geo, operands, products }
    }

    /// The inbox positions of `vp`'s `A` slots and of its `B` slots at level
    /// `t ≥ 1`.
    fn operands(&self, t: u32, vp: usize) -> (&[u16], &[u16]) {
        let at = Self::operand_at(t, vp >> self.geo.log_seg(t) & 7);
        self.operands[at..at + (2 << t)].split_at(1 << t)
    }

    /// The inbox positions of the two partial products of each `C` slot at
    /// level `1 ≤ t < τ`: slot `p`'s first arrival at `2p`, its second at
    /// `2p + 1`.
    fn products(&self, t: u32) -> &[u16] {
        let at = Self::product_at(t);
        &self.products[at..at + (2 << t)]
    }
}

/// Deepest recursion `build` accepts: `τ ≤ 6`, i.e. `n ≤ 2^18`. Not a limit
/// of the position tables — their `u16` entries would index far longer
/// inboxes than the deepest level's `2·2^τ` messages — but of what a run can
/// hold, and so of what is ever tested: the next size, `n = 64^4`, puts
/// `2^33` operand replicas in flight in `D_7` alone, 69 GB of 8-byte values.
const MAX_TAU: u32 = 6;

// Every inbox position fits a table entry.
const _: () = assert!(2 << MAX_TAU <= u16::MAX as usize);

/// The declared route of a step whose every VP sends `payloads` messages,
/// the `k`-th to `dst(vp, k)`, followed by the wiseness dummy block
/// [`wiseness_route`]`(ctx, label, dummies, _)`.
fn route(
    payloads: usize,
    label: u32,
    dummies: u64,
    dst: impl Fn(usize, usize) -> usize + Send + Sync + 'static,
) -> impl Fn(&Ctx, usize) -> Route + Send + Sync + 'static {
    move |ctx, k| {
        if k < payloads {
            Route::Data(dst(ctx.vp, k))
        } else {
            wiseness_route(ctx, label, dummies, k - payloads)
        }
    }
}

/// The 8-way recursive network-oblivious matrix multiplication.
///
/// Supported sizes: `n = 64^e` (so that the matrix side is a power of two and
/// the recursion depth `log_8 n` is integral, as the paper assumes), up to
/// `64^3 = 2^18`.
#[derive(Debug, Clone)]
pub struct RecursiveMm<V> {
    /// Emit the wiseness dummy messages of Section 4.1 (default: true).
    pub wise: bool,
    _marker: PhantomData<V>,
}

impl<V> Default for RecursiveMm<V> {
    fn default() -> Self {
        RecursiveMm { wise: true, _marker: PhantomData }
    }
}

impl<V> RecursiveMm<V> {
    /// Creates the algorithm, choosing whether to emit wiseness dummies.
    pub fn new(wise: bool) -> Self {
        RecursiveMm { wise, _marker: PhantomData }
    }

    /// Whether `n` is a supported problem size (`n = 64^e`, `1 ≤ e ≤ 3`).
    pub fn supports(n: usize) -> bool {
        Self::is_power_of_64(n) && n.trailing_zeros() <= 3 * MAX_TAU
    }

    fn is_power_of_64(n: usize) -> bool {
        n >= 64 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(6)
    }

    /// Refuses, before any VP runs, a size past [`MAX_TAU`].
    fn assert_supported(n: usize) {
        assert!(Self::is_power_of_64(n), "RecursiveMm supports n = 64^e, got {n}");
        assert!(
            Self::supports(n),
            "RecursiveMm supports n ≤ 2^{} (the next size puts 2^33 operand replicas \
             in flight): n = {n}",
            3 * MAX_TAU
        );
    }
}

impl<V: Semiring> NobAlgorithm for RecursiveMm<V> {
    type State = MmState<V>;
    type Msg = V;
    type Input = MmInput<V>;
    type Output = Matrix<V>;

    fn name(&self) -> String {
        format!("mm-recursive(wise={})", self.wise)
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &MmInput<V>) -> Vec<MmState<V>> {
        Self::assert_supported(n);
        assert_eq!(input.n(), n);
        let geo = Geometry::new(n);
        (0..n)
            .map(|vp| {
                let (i, j) = geo.local(0, vp, 0);
                MmState { a: input.a.get(i, j).clone(), b: input.b.get(i, j).clone() }
            })
            .collect()
    }

    fn build(&self, n: usize) -> Program<MmState<V>, V> {
        Self::assert_supported(n);
        let geo = Geometry::new(n);
        let tau = geo.tau;
        let positions = Arc::new(Positions::new(geo));
        let mut prog: Program<MmState<V>, V> = Program::new(n, n);
        let log_v = prog.log_v();
        let wise = self.wise;
        // A step's wiseness dummies trail its payloads.
        let out_degree =
            |payloads: usize, dummies: u64| payloads + usize::from(wise) * dummies as usize;

        // --- Distribution steps D_0 .. D_{τ−1} ------------------------------
        for t in 0..tau {
            let label = 3 * t;
            let (payloads, dummies) = (Geometry::replicas(t), 1u64 << t);
            let positions = positions.clone();
            prog.step_oblivious(
                label,
                "mm-distribute",
                out_degree(payloads, dummies),
                route(payloads, label, dummies, move |vp, k| geo.replica_dst(t, vp, k)),
                move |st, ctx, inbox, out| {
                    // Every level forwards what it received; D_0 "receives"
                    // the VP's own two entries.
                    let own;
                    let (msgs, (a, b)) = if t == 0 {
                        own = [st.a.clone(), st.b.clone()];
                        (&own[..], (&[0][..], &[1][..]))
                    } else {
                        (inbox.as_slice(), positions.operands(t, ctx.vp))
                    };
                    // Two replicas per slot: all of A's, then all of B's.
                    for &at in a.iter().chain(b).flat_map(|at| [at, at]) {
                        out.send(msgs[at as usize].clone());
                    }
                },
            );
        }

        // --- Base: sequential n^{1/6}-side multiply, send M upward ----------
        {
            let label = 3 * (tau - 1);
            let (payloads, dummies) = (1usize << tau, 1u64 << (tau - 1));
            let positions = positions.clone();
            prog.step_oblivious(
                label,
                "mm-base",
                out_degree(payloads, dummies),
                route(payloads, label, dummies, move |vp, k| geo.product_dst(tau, vp, k)),
                move |_st, ctx, inbox, out| {
                    let msgs = inbox.as_slice();
                    let side = 1usize << geo.log_side(tau);
                    // At level τ a segment is one VP: the slots are the dense
                    // row-major operand blocks.
                    let (a, b) = positions.operands(tau, ctx.vp);
                    for i in 0..side {
                        for j in 0..side {
                            let mut acc = V::zero();
                            for k in 0..side {
                                let a_ik = &msgs[a[i * side + k] as usize];
                                let b_kj = &msgs[b[k * side + j] as usize];
                                acc = acc.add(&a_ik.mul(b_kj));
                            }
                            out.send(acc);
                        }
                    }
                },
            );
        }

        // --- Combine steps K_{τ−1} .. K_1 -----------------------------------
        for t in (1..tau).rev() {
            let label = 3 * (t - 1);
            let (payloads, dummies) = (1usize << t, 1u64 << (t - 1));
            let positions = positions.clone();
            prog.step_oblivious(
                label,
                "mm-combine",
                out_degree(payloads, dummies),
                route(payloads, label, dummies, move |vp, k| geo.product_dst(t, vp, k)),
                move |_st, _ctx, inbox, out| {
                    let msgs = inbox.as_slice();
                    for pair in positions.products(t).chunks_exact(2) {
                        out.send(msgs[pair[0] as usize].add(&msgs[pair[1] as usize]));
                    }
                },
            );
        }

        // --- Final sum: every VP ends with its single C entry ---------------
        prog.step_oblivious(
            log_v - 1,
            "mm-finalize",
            0,
            |_: &Ctx, _| Route::Skip,
            move |st, _ctx, inbox, _out| {
                let [m0, m1] = inbox.as_slice() else {
                    unreachable!("C_hk = M_hk0 + M_hk1: two arrivals per VP")
                };
                st.a = m0.add(m1);
            },
        );
        prog
    }

    fn extract(&self, n: usize, states: Vec<MmState<V>>) -> Matrix<V> {
        let geo = Geometry::new(n);
        Matrix::from_fn(1 << geo.log_s, |i, j| states[i << geo.log_s | j].a.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlus, NumF64, WrapU64};
    use nob_core::lower_bounds;
    use nob_machine::plan::PlanLayout;
    use nob_machine::{execute, execute_folded, run, RunOptions};

    fn random_input(s: usize, seed: u64) -> MmInput<WrapU64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let a = Matrix::from_fn(s, |_, _| WrapU64(next() % 1000));
        let b = Matrix::from_fn(s, |_, _| WrapU64(next() % 1000));
        MmInput::new(a, b)
    }

    #[test]
    fn supports_only_powers_of_64() {
        assert!(RecursiveMm::<WrapU64>::supports(64));
        assert!(RecursiveMm::<WrapU64>::supports(4096));
        assert!(!RecursiveMm::<WrapU64>::supports(256));
        assert!(!RecursiveMm::<WrapU64>::supports(63));
    }

    #[test]
    fn supports_stops_where_the_bodies_stop_indexing() {
        // τ = MAX_TAU = 6 is the last size supported.
        assert!(RecursiveMm::<WrapU64>::supports(1 << 18));
        RecursiveMm::<WrapU64>::assert_supported(1 << 18);
        assert!(!RecursiveMm::<WrapU64>::supports(1 << 24));
    }

    #[test]
    #[should_panic(expected = "n ≤ 2^18 (the next size puts 2^33 operand replicas in flight): \
                               n = 16777216")]
    fn a_size_past_the_slot_table_is_refused_by_name_up_front() {
        RecursiveMm::<WrapU64>::default().build(1 << 24);
    }

    #[test]
    fn multiplies_correctly_n64() {
        let input = random_input(8, 42);
        let expect = input.a.mul_reference(&input.b);
        let alg = RecursiveMm::<WrapU64>::default();
        let (got, trace) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        assert_eq!(got, expect);
        // Superstep structure: τ = 2 levels → D0, D1, base, K1, final = 5.
        assert_eq!(trace.superstep_count(), 5);
    }

    #[test]
    fn multiplies_correctly_n4096() {
        let input = random_input(64, 7);
        let expect = input.a.mul_reference(&input.b);
        let alg = RecursiveMm::<WrapU64>::default();
        let (got, _) = execute(&alg, 4096, &input, &RunOptions::default()).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn works_over_the_tropical_semiring() {
        // Min-plus product = one step of APSP.
        let s = 8;
        let a = Matrix::from_fn(s, |i, j| {
            if i == j {
                MinPlus(0.0)
            } else {
                MinPlus(((i * 31 + j * 17) % 9 + 1) as f64)
            }
        });
        let input = MmInput::new(a.clone(), a.clone());
        let expect = a.mul_reference(&a);
        let alg = RecursiveMm::<MinPlus>::default();
        let (got, _) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        assert!(got.close_to(&expect));
    }

    #[test]
    fn works_over_f64() {
        let s = 8;
        let a = Matrix::from_fn(s, |i, j| NumF64((i as f64) + 0.25 * j as f64));
        let b = Matrix::from_fn(s, |i, j| NumF64(1.0 / (1.0 + i as f64 + j as f64)));
        let input = MmInput::new(a.clone(), b.clone());
        let expect = a.mul_reference(&b);
        let alg = RecursiveMm::<NumF64>::default();
        let (got, _) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        assert!(got.close_to(&expect));
    }

    #[test]
    fn folding_preserves_output_and_metrics() {
        let input = random_input(8, 3);
        let alg = RecursiveMm::<WrapU64>::default();
        let (full_out, full_trace) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        for p in [2usize, 8, 16, 64] {
            let (out, trace) =
                execute_folded(&alg, 64, &input, p, &RunOptions::default()).unwrap();
            assert_eq!(out, full_out, "folded output diverges at p = {p}");
            let mut q = 2;
            while q <= p {
                assert_eq!(trace.fold(q), full_trace.fold(q), "metrics diverge at {p}/{q}");
                q *= 2;
            }
        }
    }

    #[test]
    fn degrees_follow_the_theorem_shape() {
        // h of the level-t supersteps is O(2^t) at full granularity.
        let input = random_input(64, 11);
        let alg = RecursiveMm::<WrapU64>::new(false);
        let (_, trace) = execute(&alg, 4096, &input, &RunOptions::default()).unwrap();
        for step in &trace.steps {
            let t = step.label / 3;
            assert!(
                step.h(trace.log_v) <= 6 << t,
                "label {} degree {} too large",
                step.label,
                step.h(trace.log_v)
            );
        }
    }

    #[test]
    fn communication_complexity_matches_theorem_4_2() {
        let input = random_input(64, 5);
        let alg = RecursiveMm::<WrapU64>::default();
        let (_, trace) = execute(&alg, 4096, &input, &RunOptions::default()).unwrap();
        // H(n, p, 0) should scale like n/p^{2/3}: ratios across p follow 4x.
        let h8 = trace.comm_complexity(8, 0.0);
        let h64 = trace.comm_complexity(64, 0.0);
        let h512 = trace.comm_complexity(512, 0.0);
        assert!(h8 / h64 > 2.5 && h8 / h64 < 6.0, "h8/h64 = {}", h8 / h64);
        assert!(h64 / h512 > 2.5 && h64 / h512 < 6.0, "h64/h512 = {}", h64 / h512);
        // Against the closed form, the constant stays modest.
        for p in [8usize, 64, 512, 4096] {
            let measured = trace.comm_complexity(p, 0.0);
            let theory = lower_bounds::upper::mm(4096, p, 0.0);
            let ratio = measured / theory;
            assert!(ratio < 16.0, "p={p}: measured/theory = {ratio}");
        }
        // Θ(1)-optimality against Lemma 4.1's Ω(n/p^{2/3} + σ): the measured
        // factor peaks at 7.95 (p = 1024, σ = 16) on this grid.
        for p in [2usize, 16, 128, 1024] {
            for sigma in [0.0, 16.0] {
                let ratio = trace.comm_complexity(p, sigma) / lower_bounds::mm(4096, p, sigma);
                assert!(ratio < 10.0, "p={p} sigma={sigma}: measured/LB = {ratio}");
            }
        }
    }

    #[test]
    fn wiseness_is_constant_with_dummies() {
        let input = random_input(8, 9);
        let alg = RecursiveMm::<WrapU64>::default();
        let (_, trace) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        let w = nob_core::wiseness::alpha_max(&trace, 64);
        assert!(w.alpha >= 0.2, "alpha = {}", w.alpha);
    }

    #[test]
    fn state_at_rest_is_two_values() {
        assert_eq!(std::mem::size_of::<MmState<WrapU64>>(), 16);
        // Labels and per-step payload totals as literals: the routes are
        // pinned, not recomputed from the code under test.
        let labels_64 = vec![0, 3, 3, 0, 5];
        let data_64 = [256, 512, 256, 128, 0];
        let labels_4096 = vec![0, 3, 6, 9, 9, 6, 3, 0, 11];
        let data_4096 = [16_384, 32_768, 65_536, 131_072, 65_536, 32_768, 16_384, 8_192, 0];
        for (n, labels, data) in
            [(64usize, labels_64, &data_64[..]), (4096, labels_4096, &data_4096)]
        {
            for wise in [true, false] {
                let prog = RecursiveMm::<WrapU64>::new(wise).build(n);
                assert_eq!(prog.planned_steps(), prog.steps().len(), "n={n} wise={wise}");
                assert_eq!(prog.labels(), labels, "n={n} wise={wise}");
                for (step, &total) in prog.steps().iter().zip(data) {
                    let plan = step.plan().expect("declared");
                    assert!(plan.fault().is_none(), "{}: {:?}", step.name, plan.fault());
                    assert!(
                        matches!(plan.layout(), Some(PlanLayout::Uniform(_))),
                        "n={n} wise={wise} {}: {:?}",
                        step.name,
                        plan.layout()
                    );
                    assert_eq!(plan.total_data(), total, "n={n} wise={wise} {}", step.name);
                }
                assert!(prog.plan_bytes() <= 2048, "{} plan bytes", prog.plan_bytes());
            }
        }
    }

    #[test]
    fn a_message_is_a_bare_value() {
        assert_eq!(std::mem::size_of::<<RecursiveMm<WrapU64> as NobAlgorithm>::Msg>(), 8);
    }

    /// Which matrix an entry belongs to, and its global `(row, column)`.
    type Entry = (char, usize, usize);

    /// The entry of `matrix` (`'A'`, `'B'` or `'C'`) in slot `p` of `vp` at
    /// level `t`, from coordinates alone: the base-8 digits of `vp`, most
    /// significant first, are the `(h, k, l)` choices of the path from the
    /// root, each one more bit of the block's origin — `A_{hl}`, `B_{lk}`,
    /// `C_{hk}`.
    fn entry(geo: Geometry, matrix: char, t: u32, vp: usize, p: usize) -> Entry {
        let (mut h, mut k, mut l) = (0, 0, 0);
        for d in 1..=t {
            let digit = vp >> geo.log_seg(d) & 7;
            let bit = geo.log_side(d);
            h |= (digit >> 2) << bit;
            k |= (digit >> 1 & 1) << bit;
            l |= (digit & 1) << bit;
        }
        let (row, col) = match matrix {
            'A' => (h, l),
            'B' => (l, k),
            _ => (h, k),
        };
        let (li, lj) = geo.local(t, vp, p);
        (matrix, row | li, col | lj)
    }

    /// Every VP's inbox in the engine's delivery order — ascending source,
    /// then send order — for the sends `(src, k) ↦ (dst, entry)`.
    fn inboxes(
        n: usize,
        per_src: usize,
        send: impl Fn(usize, usize) -> (usize, Entry),
    ) -> Vec<Vec<Entry>> {
        let mut inboxes = vec![Vec::new(); n];
        for src in 0..n {
            for k in 0..per_src {
                let (dst, entry) = send(src, k);
                inboxes[dst].push(entry);
            }
        }
        inboxes
    }

    #[test]
    fn position_tables_are_the_declared_arrival_order() {
        for n in [64usize, 4096] {
            let geo = Geometry::new(n);
            let positions = Positions::new(geo);
            for t in 1..=geo.tau {
                // What D_{t−1}'s declared routes deliver: the k-th message of
                // either operand carries the sender's slot k >> 1.
                let per_operand = Geometry::replicas(t - 1) / 2;
                let arrived = inboxes(n, Geometry::replicas(t - 1), |src, k| {
                    let matrix = if k < per_operand { 'A' } else { 'B' };
                    let slot = (k & (per_operand - 1)) >> 1;
                    (geo.replica_dst(t - 1, src, k), entry(geo, matrix, t - 1, src, slot))
                });
                for (vp, inbox) in arrived.iter().enumerate() {
                    let (a, b) = positions.operands(t, vp);
                    assert_eq!(inbox.len(), 2 << t, "n={n} t={t} vp={vp}");
                    for p in 0..1 << t {
                        let what = format!("n={n} t={t} vp={vp} slot {p}");
                        assert_eq!(inbox[a[p] as usize], entry(geo, 'A', t, vp, p), "{what}");
                        assert_eq!(inbox[b[p] as usize], entry(geo, 'B', t, vp, p), "{what}");
                    }
                }
            }
            for t in 1..geo.tau {
                // What the base step (t + 1 = τ) or K_{t+1} delivers.
                let arrived = inboxes(n, 2 << t, |src, p| {
                    (geo.product_dst(t + 1, src, p), entry(geo, 'C', t + 1, src, p))
                });
                for (vp, inbox) in arrived.iter().enumerate() {
                    assert_eq!(inbox.len(), 2 << t, "n={n} t={t} vp={vp}");
                    for (p, pair) in positions.products(t).chunks_exact(2).enumerate() {
                        let what = format!("n={n} t={t} vp={vp} slot {p}");
                        assert!(pair[0] < pair[1], "{what}: first arrival first");
                        for &at in pair {
                            assert_eq!(inbox[at as usize], entry(geo, 'C', t, vp, p), "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planned_run_equals_dynamic_run_at_every_width() {
        for (n, seed) in [(64usize, 19u64), (4096, 29)] {
            let input = random_input(1 << (n.trailing_zeros() / 2), seed);
            for wise in [true, false] {
                let alg = RecursiveMm::<WrapU64>::new(wise);
                let prog = alg.build(n);
                let dynamic =
                    RunOptions { use_plans: false, workers: Some(1), ..RunOptions::with_log() };
                let want = run(&prog, alg.init(n, &input), &dynamic).unwrap();
                assert_eq!(alg.extract(n, want.states.clone()), input.a.mul_reference(&input.b));
                for workers in [1usize, 2, 4] {
                    let planned = RunOptions { workers: Some(workers), ..RunOptions::with_log() };
                    assert!(planned.validate && planned.use_plans);
                    let got = run(&prog, alg.init(n, &input), &planned).unwrap();
                    let what = format!("n={n} wise={wise} workers={workers}");
                    assert_eq!(got.states, want.states, "{what}: states");
                    assert_eq!(got.trace, want.trace, "{what}: trace");
                    assert_eq!(got.message_log, want.message_log, "{what}: message log");
                }
            }
        }
    }
}
