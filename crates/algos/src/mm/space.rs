//! The space-efficient network-oblivious MM algorithm (Section 4.1.1).
//!
//! Specified on `M(n)` with **one** entry of `A`, `B` and `C` per VP at all
//! times (constant memory blow-up). The VPs sit in Morton (Z-order) layout,
//! so the four aligned quarters of a segment hold the four quadrants of each
//! matrix. At every level the eight quadrant products are computed in two
//! rounds of four (one per quarter-segment); in round `r`, segment `(h, k)`
//! computes `C_{hk} ⊕= A_{h,x}·B_{x,k}` with `x = h⊕k⊕r`, so each quadrant of
//! `A` and `B` moves to exactly one destination segment (an involutive XOR
//! permutation — the same superstep pattern moves data out and back).
//!
//! Costs (§4.1.1): `Θ(2^i)` supersteps of label `2i` at level `i`, each of
//! degree `O(1)`, giving `H_MM-space(n, p, σ) = O(n/√p + σ·√p)` — optimal
//! among algorithms with `O(n/v)` memory per processing element
//! (Irony–Toledo–Tiskin), at the price of a larger bandwidth term than the
//! 8-way algorithm's `n/p^{2/3}`.

use super::{MmInput, MmMsg};
use crate::common::{morton_decode, wiseness_dummies};
use crate::semiring::{Matrix, Semiring};
use nob_machine::{Ctx, Inbox, NobAlgorithm, Outbox, Program};
use std::marker::PhantomData;

/// Per-VP state: exactly one entry of each matrix.
#[derive(Debug, Clone)]
pub struct SpaceMmState<V> {
    a: (u32, u32, V),
    b: (u32, u32, V),
    c: V,
}

/// The space-efficient recursive MM algorithm. Supports every `n = 4^m ≥ 4`.
#[derive(Debug, Clone)]
pub struct SpaceEfficientMm<V> {
    /// Emit wiseness dummy messages (default: true).
    pub wise: bool,
    _marker: PhantomData<V>,
}

impl<V> Default for SpaceEfficientMm<V> {
    fn default() -> Self {
        SpaceEfficientMm { wise: true, _marker: PhantomData }
    }
}

impl<V> SpaceEfficientMm<V> {
    /// Creates the algorithm, choosing whether to emit wiseness dummies.
    pub fn new(wise: bool) -> Self {
        SpaceEfficientMm { wise, _marker: PhantomData }
    }

    /// Whether `n` is a supported size (`4^m`, `m ≥ 1`).
    pub fn supports(n: usize) -> bool {
        n >= 4 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2)
    }
}

/// Sends this VP's operand entries through the round-`r` quadrant permutation
/// at recursion level `t` (and, because the permutation is an involution, also
/// back home).
fn send_permuted<V: Semiring>(
    st: &SpaceMmState<V>,
    ctx: &Ctx,
    t: usize,
    r: usize,
    out: &mut Outbox<MmMsg<V>>,
) {
    let seg_size = ctx.v >> (2 * t); // level-t segment size n/4^t
    let child = seg_size / 4;
    let seg_base = ctx.vp - ctx.vp % seg_size;
    let digit = (ctx.vp - seg_base) / child;
    let off = (ctx.vp - seg_base) % child;
    let (hi, lo) = (digit >> 1, digit & 1);
    // A_{h,k} at digit (h,k) is needed by segment (h, k⊕h⊕r).
    let a_dst = seg_base + ((hi << 1) | (lo ^ hi ^ r)) * child + off;
    // B_{x,k} at digit (x,k) is needed by segment (x⊕k⊕r, k).
    let b_dst = seg_base + (((hi ^ lo ^ r) << 1) | lo) * child + off;
    let (ai, aj, av) = &st.a;
    let (bi, bj, bv) = &st.b;
    out.send(a_dst, MmMsg::A(*ai as u16, *aj as u16, av.clone()));
    out.send(b_dst, MmMsg::B(*bi as u16, *bj as u16, bv.clone()));
}

/// Replaces the held operand entries with the ones that just arrived.
fn ingest<V: Semiring>(st: &mut SpaceMmState<V>, inbox: &mut Inbox<'_, MmMsg<V>>) {
    for msg in inbox.drain(..) {
        match msg {
            MmMsg::A(i, j, v) => st.a = (i.into(), j.into(), v),
            MmMsg::B(i, j, v) => st.b = (i.into(), j.into(), v),
        }
    }
}

/// Emits the superstep schedule for level `t` segments (size `n/4^t`).
fn emit<V: Semiring>(
    prog: &mut Program<SpaceMmState<V>, MmMsg<V>>,
    n: usize,
    t: usize,
    wise: bool,
) {
    let child = (n >> (2 * t)) / 4;
    for r in 0..2usize {
        let label = (2 * t) as u32;
        // Move out: route the operand quadrants for round r.
        prog.step(label, "smm-move", move |st, ctx, inbox, out| {
            ingest(st, inbox);
            send_permuted(st, ctx, t, r, out);
            if wise {
                wiseness_dummies(ctx, label, 1, out);
            }
        });
        if child == 1 {
            // Base: the single-VP segment multiplies and sends the operands
            // straight back (same involutive permutation).
            prog.step(label, "smm-base", move |st, ctx, inbox, out| {
                ingest(st, inbox);
                st.c = st.c.add(&st.a.2.mul(&st.b.2));
                send_permuted(st, ctx, t, r, out);
                if wise {
                    wiseness_dummies(ctx, label, 1, out);
                }
            });
        } else {
            emit(prog, n, t + 1, wise);
            // Move back: restore canonical layout for the next round/level.
            prog.step(label, "smm-restore", move |st, ctx, inbox, out| {
                ingest(st, inbox);
                send_permuted(st, ctx, t, r, out);
                if wise {
                    wiseness_dummies(ctx, label, 1, out);
                }
            });
        }
    }
}

impl<V: Semiring> NobAlgorithm for SpaceEfficientMm<V> {
    type State = SpaceMmState<V>;
    type Msg = MmMsg<V>;
    type Input = MmInput<V>;
    type Output = Matrix<V>;

    fn name(&self) -> String {
        format!("mm-space(wise={})", self.wise)
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &MmInput<V>) -> Vec<SpaceMmState<V>> {
        assert!(Self::supports(n), "SpaceEfficientMm supports n = 4^m, got {n}");
        assert_eq!(input.n(), n);
        (0..n)
            .map(|vp| {
                let (i, j) = morton_decode(vp);
                SpaceMmState {
                    a: (i as u32, j as u32, input.a.get(i, j).clone()),
                    b: (i as u32, j as u32, input.b.get(i, j).clone()),
                    c: V::zero(),
                }
            })
            .collect()
    }

    fn build(&self, n: usize) -> Program<SpaceMmState<V>, MmMsg<V>> {
        assert!(Self::supports(n), "SpaceEfficientMm supports n = 4^m, got {n}");
        assert!(n as u64 <= super::MAX_N, "MmMsg coordinates are u16: n = {n} > 2^32");
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        emit(&mut prog, n, 0, self.wise);
        // Consume the final restore messages.
        prog.step(log_v - 1, "smm-finalize", |st, _ctx, inbox, _out| {
            ingest(st, inbox);
        });
        prog
    }

    fn extract(&self, n: usize, states: Vec<SpaceMmState<V>>) -> Matrix<V> {
        let s = 1usize << (n.trailing_zeros() / 2);
        let mut out = Matrix::zero(s);
        for (vp, st) in states.iter().enumerate() {
            let (i, j) = morton_decode(vp);
            out.set(i, j, st.c.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::WrapU64;
    use nob_core::lower_bounds;
    use nob_machine::{execute, execute_folded, RunOptions};

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
    fn multiplies_correctly_small_sizes() {
        for &s in &[2usize, 4, 8, 16] {
            let n = s * s;
            let input = random_input(s, s as u64);
            let expect = input.a.mul_reference(&input.b);
            let alg = SpaceEfficientMm::<WrapU64>::default();
            let (got, _) = execute(&alg, n, &input, &RunOptions::default()).unwrap();
            assert_eq!(got, expect, "failed at side {s}");
        }
    }

    #[test]
    fn superstep_counts_are_theta_2i_per_level() {
        // S^{2i} = Θ(2^i): the schedule has Θ(2^i) supersteps of label 2i.
        let alg = SpaceEfficientMm::<WrapU64>::default();
        let input = random_input(16, 1);
        let (_, trace) = execute(&alg, 256, &input, &RunOptions::default()).unwrap();
        let s = trace.s_counts();
        assert!(s[0] >= 2 && s[0] <= 6, "S^0 = {}", s[0]);
        assert!(s[2] >= 4 && s[2] <= 12, "S^2 = {}", s[2]);
        assert!(s[4] >= 8 && s[4] <= 24, "S^4 = {}", s[4]);
    }

    #[test]
    fn folding_preserves_output_and_metrics() {
        let input = random_input(8, 5);
        let alg = SpaceEfficientMm::<WrapU64>::default();
        let (full_out, full_trace) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        assert_eq!(full_out, input.a.mul_reference(&input.b));
        for p in [2usize, 4, 16, 64] {
            let (out, trace) = execute_folded(&alg, 64, &input, p, &RunOptions::default()).unwrap();
            assert_eq!(out, full_out);
            let mut q = 2;
            while q <= p {
                assert_eq!(trace.fold(q), full_trace.fold(q));
                q *= 2;
            }
        }
    }

    #[test]
    fn bandwidth_term_scales_as_n_over_sqrt_p() {
        // The level-by-level sum gives H(n, p, 0) = Θ(n·(√p − 1)/p): check
        // measured ratios against that closed form (the asymptotic "quadruple
        // p, halve H" only emerges once √p ≫ 1).
        let n = 1024usize;
        let input = random_input(32, 9);
        let alg = SpaceEfficientMm::<WrapU64>::new(false);
        let (_, trace) = execute(&alg, n, &input, &RunOptions::default()).unwrap();
        let shape = |p: usize| ((p as f64).sqrt() - 1.0) / p as f64;
        for (pa, pb) in [(4usize, 16usize), (16, 256), (64, 1024)] {
            let measured = trace.comm_complexity(pa, 0.0) / trace.comm_complexity(pb, 0.0);
            let predicted = shape(pa) / shape(pb);
            assert!(
                measured / predicted > 0.6 && measured / predicted < 1.7,
                "H({pa})/H({pb}) = {measured:.2}, closed form {predicted:.2}"
            );
        }
        // Against the closed form n/√p + σ·√p the factor stays in 3.8–7.8,
        // and against Irony–Toledo–Tiskin's Ω(n/√p + σ) it peaks at 46.8
        // (p = 1024, σ = 16), where the σ·√p latency term dominates.
        for p in [4usize, 16, 64, 256, 1024] {
            for sigma in [0.0, 16.0] {
                let h = trace.comm_complexity(p, sigma);
                let ratio = h / lower_bounds::upper::mm_space(n, p, sigma);
                assert!(ratio > 2.0 && ratio < 10.0, "p={p} sigma={sigma}: H/closed = {ratio}");
                let ratio = h / lower_bounds::mm_space(n, p, sigma);
                assert!(ratio < 64.0, "p={p} sigma={sigma}: measured/LB = {ratio}");
            }
        }
    }

    #[test]
    fn per_vp_memory_is_constant() {
        // The state type itself enforces O(1) entries per VP; sanity-check
        // that messages per VP per superstep stay O(1) too.
        let input = random_input(16, 13);
        let alg = SpaceEfficientMm::<WrapU64>::default();
        let (_, trace) = execute(&alg, 256, &input, &RunOptions::default()).unwrap();
        assert!(trace.max_degree() <= 4, "degree {}", trace.max_degree());
    }
}
