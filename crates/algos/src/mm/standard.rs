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
//! with sub-local row-major index `e` lives on VP `segment base + (e >> t)`
//! at slot `e & (2^t − 1)` of that VP's block (see [`MmState`]). The `k`-th
//! send of a step is therefore a function of `(vp, k)` only — `Geometry`
//! holds one destination helper per direction, and both the declared route
//! and the step body call it, so declaration and sends cannot drift. Every
//! VP receives the same number of payloads in every step, so each plan is an
//! `O(1)` [`nob_machine::plan::PlanLayout::Uniform`] summary.

use super::{MmInput, MmMsg};
use crate::common::{wiseness_dummies, wiseness_route};
use crate::semiring::{Matrix, Semiring};
use nob_machine::{Ctx, Inbox, NobAlgorithm, Program, Route};
use std::marker::PhantomData;

/// Per-VP state: one block of `2·2^τ` values (`τ = log_8 n`), full length
/// from `init` on so that no step — and no per-job clone of the initial
/// states — ever grows it.
///
/// The low half holds the VP's `A` entries while the recursion descends and
/// its `C` entries while it ascends; the high half holds its `B` entries. At
/// level `t` the first `2^t` slots of a half are live, slot `p` holding the
/// entry with sub-local row-major index `(local VP index << t) + p`. At
/// `t = τ` a segment is one VP and the two halves *are* the dense
/// `n^{1/6}`-side operand blocks the base step multiplies in place; at
/// `t = 0` slot 0 is the VP's single entry of `A`, `B` or (finally) `C`.
#[derive(Debug, Clone, PartialEq)]
pub struct MmState<V> {
    block: Vec<V>,
}

/// Row/column origins of the subproblem a VP's segment owns at some level:
/// `A` starts at `(h, l)`, `B` at `(l, k)` and `C` at `(h, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Origin {
    h: usize,
    k: usize,
    l: usize,
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

    /// Values per half of an [`MmState`] block: `2^τ`.
    fn half(self) -> usize {
        1 << self.tau
    }

    /// `log2` of the submatrix side at level `t`.
    fn log_side(self, t: u32) -> u32 {
        self.log_s - t
    }

    /// `log2` of the segment size at level `t`.
    fn log_seg(self, t: u32) -> u32 {
        3 * (self.tau - t)
    }

    /// Walks `t` levels of the recursion tree towards `vp`: the base-8 digits
    /// of `vp`, most significant first, are the `(h, k, l)` choices of the
    /// path from the root, and each choice is one more bit of an origin.
    fn path(self, t: u32, vp: usize) -> Origin {
        let mut o = Origin { h: 0, k: 0, l: 0 };
        for d in 0..t {
            let digit = vp >> self.log_seg(d + 1) & 7;
            let bit = self.log_side(d + 1);
            o.h |= (digit >> 2) << bit;
            o.k |= (digit >> 1 & 1) << bit;
            o.l |= (digit & 1) << bit;
        }
        o
    }

    /// Sub-local `(row, column)` of the entry in slot `p` of `vp` at level
    /// `t`.
    fn local(self, t: u32, vp: usize, p: usize) -> (usize, usize) {
        let e = (vp & ((1 << self.log_seg(t)) - 1)) << t | p;
        let bits = self.log_side(t);
        (e >> bits, e & ((1 << bits) - 1))
    }

    /// The slot, on its level-`t` owner, of the entry with global (or
    /// sub-local: only the low bits matter) coordinates `(i, j)` — the
    /// inverse of [`Geometry::local`] on the receiving side.
    fn slot(self, t: u32, i: u16, j: u16) -> usize {
        let bits = self.log_side(t);
        let mask = (1usize << bits) - 1;
        ((i as usize & mask) << bits | (j as usize & mask)) & ((1 << t) - 1)
    }

    /// Operand messages each VP sends in `D_t`: two replicas of each of its
    /// `2^t` entries of `A`, then the same for `B`.
    fn replicas(t: u32) -> usize {
        4 << t
    }

    /// Destination of the `k`-th operand message of `vp` in `D_t`
    /// (`k < replicas(t)`): message `k` of either operand carries the entry
    /// in slot `k >> 1` to the child segment picked by replica bit `k & 1` —
    /// `A_{hl}` goes to `S_{h·l}`, `B_{lk}` to `S_{·kl}` — where it is owned
    /// by the VP its index in the child's quadrant selects.
    fn replica_dst(self, t: u32, vp: usize, k: usize) -> usize {
        let per_operand = Self::replicas(t) / 2;
        let (li, lj) = self.local(t, vp, (k & (per_operand - 1)) >> 1);
        let r = k & 1;
        let half_bits = self.log_side(t + 1);
        let (hi, lo) = (li >> half_bits, lj >> half_bits);
        let digit = if k < per_operand { hi << 2 | r << 1 | lo } else { r << 2 | lo << 1 | hi };
        let mask = (1 << half_bits) - 1;
        let e = (li & mask) << half_bits | (lj & mask);
        let seg = self.log_seg(t);
        (vp >> seg << seg) + (digit << self.log_seg(t + 1)) + (e >> (t + 1))
    }

    /// The level-`t − 1` owner of the `C` entry in slot `p` of `vp` at level
    /// `t ≥ 1`: the `(h, k)` digits of `vp`'s child segment place its
    /// `C_{hk}` quadrant inside the parent's `C`.
    fn product_dst(self, t: u32, vp: usize, p: usize) -> usize {
        let (li, lj) = self.local(t, vp, p);
        let bits = self.log_side(t);
        let digit = vp >> self.log_seg(t) & 7;
        let e = ((digit >> 2) << bits | li) << (bits + 1) | (digit >> 1 & 1) << bits | lj;
        let parent = self.log_seg(t - 1);
        (vp >> parent << parent) + (e >> (t - 1))
    }
}

impl<V: Semiring> MmState<V> {
    /// Files the operand entries routed here by `D_{t−1}` in their
    /// level-`t` slots.
    fn ingest_operands(&mut self, geo: Geometry, t: u32, inbox: &mut Inbox<'_, MmMsg<V>>) {
        for msg in inbox.drain(..) {
            match msg {
                MmMsg::A(i, j, v) => self.block[geo.slot(t, i, j)] = v,
                MmMsg::B(i, j, v) => self.block[geo.half() + geo.slot(t, i, j)] = v,
                MmMsg::M(..) => unreachable!("no products during descent"),
            }
        }
    }

    /// Sums the partial products routed here into the level-`t` `C` slots.
    /// The slots are filled with [`Semiring::zero`] and every arrival is
    /// `add`-ed in, so the result is the plain sum of the two contributions
    /// precisely because `zero` is the additive identity — `+∞` under
    /// min-plus, `false` under Boolean or — not because it is numerically 0.
    fn ingest_products(&mut self, geo: Geometry, t: u32, inbox: &mut Inbox<'_, MmMsg<V>>) {
        self.block[..1 << t].fill(V::zero());
        for msg in inbox.drain(..) {
            if let MmMsg::M(i, j, v) = msg {
                let c = &mut self.block[geo.slot(t, i, j)];
                *c = c.add(&v);
            }
        }
    }
}

/// The declared route of a step whose every VP sends `payloads` messages,
/// the `k`-th to `dst(vp, k)`, followed by the wiseness dummy block of
/// [`wiseness_dummies`]`(ctx, label, dummies, _)`.
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
/// the recursion depth `log_8 n` is integral, as the paper assumes).
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

    /// Whether `n` is a supported problem size (`n = 64^e`, `e ≥ 1`).
    pub fn supports(n: usize) -> bool {
        n >= 64 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(6)
    }
}

impl<V: Semiring> NobAlgorithm for RecursiveMm<V> {
    type State = MmState<V>;
    type Msg = MmMsg<V>;
    type Input = MmInput<V>;
    type Output = Matrix<V>;

    fn name(&self) -> String {
        format!("mm-recursive(wise={})", self.wise)
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &MmInput<V>) -> Vec<MmState<V>> {
        assert!(Self::supports(n), "RecursiveMm supports n = 64^e, got {n}");
        assert_eq!(input.n(), n);
        let geo = Geometry::new(n);
        (0..n)
            .map(|vp| {
                let (i, j) = geo.local(0, vp, 0);
                let mut block = vec![V::zero(); 2 * geo.half()];
                block[0] = input.a.get(i, j).clone();
                block[geo.half()] = input.b.get(i, j).clone();
                MmState { block }
            })
            .collect()
    }

    fn build(&self, n: usize) -> Program<MmState<V>, MmMsg<V>> {
        assert!(Self::supports(n), "RecursiveMm supports n = 64^e, got {n}");
        assert!(n as u64 <= super::MAX_N, "MmMsg coordinates are u16: n = {n} > 2^32");
        let geo = Geometry::new(n);
        let tau = geo.tau;
        let mut prog: Program<MmState<V>, MmMsg<V>> = Program::new(n, n);
        let log_v = prog.log_v();
        let wise = self.wise;
        // A step's wiseness dummies trail its payloads.
        let out_degree =
            |payloads: usize, dummies: u64| payloads + usize::from(wise) * dummies as usize;

        // --- Distribution steps D_0 .. D_{τ−1} ------------------------------
        for t in 0..tau {
            let label = 3 * t;
            let (payloads, dummies) = (Geometry::replicas(t), 1u64 << t);
            prog.step_oblivious(
                label,
                "mm-distribute",
                out_degree(payloads, dummies),
                route(payloads, label, dummies, move |vp, k| geo.replica_dst(t, vp, k)),
                move |st, ctx, inbox, out| {
                    if t > 0 {
                        st.ingest_operands(geo, t, inbox);
                    }
                    let o = geo.path(t, ctx.vp);
                    let per_operand = payloads / 2;
                    for k in 0..per_operand {
                        let (li, lj) = geo.local(t, ctx.vp, k >> 1);
                        let val = st.block[k >> 1].clone();
                        out.send(
                            geo.replica_dst(t, ctx.vp, k),
                            MmMsg::A((o.h | li) as u16, (o.l | lj) as u16, val),
                        );
                    }
                    for k in 0..per_operand {
                        let (li, lj) = geo.local(t, ctx.vp, k >> 1);
                        let val = st.block[geo.half() + (k >> 1)].clone();
                        out.send(
                            geo.replica_dst(t, ctx.vp, per_operand + k),
                            MmMsg::B((o.l | li) as u16, (o.k | lj) as u16, val),
                        );
                    }
                    if wise {
                        wiseness_dummies(ctx, label, dummies, out);
                    }
                },
            );
        }

        // --- Base: sequential n^{1/6}-side multiply, send M upward ----------
        {
            let label = 3 * (tau - 1);
            let (payloads, dummies) = (geo.half(), 1u64 << (tau - 1));
            prog.step_oblivious(
                label,
                "mm-base",
                out_degree(payloads, dummies),
                route(payloads, label, dummies, move |vp, k| geo.product_dst(tau, vp, k)),
                move |st, ctx, inbox, out| {
                    st.ingest_operands(geo, tau, inbox);
                    let o = geo.path(tau, ctx.vp);
                    let side = 1usize << geo.log_side(tau);
                    let (a, b) = st.block.split_at(geo.half());
                    for i in 0..side {
                        for j in 0..side {
                            let mut acc = V::zero();
                            for k in 0..side {
                                acc = acc.add(&a[i * side + k].mul(&b[k * side + j]));
                            }
                            out.send(
                                geo.product_dst(tau, ctx.vp, i * side + j),
                                MmMsg::M((o.h | i) as u16, (o.k | j) as u16, acc),
                            );
                        }
                    }
                    if wise {
                        wiseness_dummies(ctx, label, dummies, out);
                    }
                },
            );
        }

        // --- Combine steps K_{τ−1} .. K_1 -----------------------------------
        for t in (1..tau).rev() {
            let label = 3 * (t - 1);
            let (payloads, dummies) = (1usize << t, 1u64 << (t - 1));
            prog.step_oblivious(
                label,
                "mm-combine",
                out_degree(payloads, dummies),
                route(payloads, label, dummies, move |vp, k| geo.product_dst(t, vp, k)),
                move |st, ctx, inbox, out| {
                    st.ingest_products(geo, t, inbox);
                    let o = geo.path(t, ctx.vp);
                    for p in 0..payloads {
                        let (li, lj) = geo.local(t, ctx.vp, p);
                        out.send(
                            geo.product_dst(t, ctx.vp, p),
                            MmMsg::M((o.h | li) as u16, (o.k | lj) as u16, st.block[p].clone()),
                        );
                    }
                    if wise {
                        wiseness_dummies(ctx, label, dummies, out);
                    }
                },
            );
        }

        // --- Final ingest: every VP ends with its single C entry ------------
        prog.step_oblivious(
            log_v - 1,
            "mm-finalize",
            0,
            |_, _| Route::Skip,
            move |st, _ctx, inbox, _out| st.ingest_products(geo, 0, inbox),
        );
        prog
    }

    fn extract(&self, n: usize, states: Vec<MmState<V>>) -> Matrix<V> {
        let geo = Geometry::new(n);
        Matrix::from_fn(1 << geo.log_s, |i, j| states[i << geo.log_s | j].block[0].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinPlus, NumF64, WrapU64};
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
            let theory = nob_core::lower_bounds::upper::mm(4096, p, 0.0);
            let ratio = measured / theory;
            assert!(ratio < 16.0, "p={p}: measured/theory = {ratio}");
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
    fn every_step_is_declared_on_a_fixed_block() {
        for (n, seed) in [(64usize, 13u64), (4096, 17)] {
            let input = random_input(1 << (n.trailing_zeros() / 2), seed);
            let block = 2 << (n.trailing_zeros() / 3);
            for wise in [true, false] {
                let alg = RecursiveMm::<WrapU64>::new(wise);
                let prog = alg.build(n);
                assert_eq!(prog.planned_steps(), prog.steps().len(), "n={n} wise={wise}");
                for step in prog.steps() {
                    let plan = step.plan().expect("declared");
                    assert!(plan.fault().is_none(), "{}: {:?}", step.name, plan.fault());
                    assert!(
                        matches!(plan.layout(), Some(PlanLayout::Uniform(_))),
                        "n={n} wise={wise} {}: {:?}",
                        step.name,
                        plan.layout()
                    );
                }
                assert!(prog.plan_bytes() <= 2048, "{} plan bytes", prog.plan_bytes());
                let states = alg.init(n, &input);
                assert!(states.iter().all(|st| st.block.len() == block));
                let done = run(&prog, states, &RunOptions::default()).unwrap();
                let fixed = |st: &MmState<WrapU64>| {
                    st.block.len() == block && st.block.capacity() == block
                };
                assert!(done.states.iter().all(fixed));
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
