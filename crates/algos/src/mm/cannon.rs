//! Cannon's algorithm on a Morton layout — the one-level baseline for n-MM.
//!
//! A classic *flat* systolic algorithm, included as the class-C competitor
//! the recursive algorithms are measured against (the paper's optimality
//! claims are relative to such algorithms). Specified on `M(n)` like the
//! oblivious algorithms, with VP `morton(i,j)` holding `A[i,j]`, `B[i,j]`,
//! `C[i,j]`: after the initial skew, each of the `√n` rounds multiplies the
//! resident pair and shifts `A` left / `B` up by one.
//!
//! Costs: `1 + √n` supersteps of label 0 and degree `O(1)`; on `M(p, σ)` the
//! Morton blocks give `H_Cannon(n, p, σ) = Θ(√n·(√(n/p) + σ))` — worse than
//! the 8-way recursion on *both* terms (`n/√p` vs `n/p^{2/3}` bandwidth,
//! `σ√n` vs `σ·log p` latency), which is exactly the gap Cor 4.3 measures
//! on D-BSP.

use super::MmInput;
use crate::common::{morton_decode, morton_encode};
use crate::semiring::{Matrix, Semiring};
use nob_machine::{Ctx, Inbox, NobAlgorithm, Program, Route};
use std::marker::PhantomData;

/// Per-VP state: the resident entries (values travel; coordinates are
/// positional, as in the systolic original).
#[derive(Debug, Clone, PartialEq)]
pub struct CannonState<V> {
    a: V,
    b: V,
    c: V,
}

/// Message payload: a travelling operand value.
#[derive(Debug, Clone)]
pub enum CannonMsg<V> {
    /// A value of the left operand moving left along its row.
    A(V),
    /// A value of the right operand moving up along its column.
    B(V),
}

/// Cannon's algorithm (flat baseline). Supports every `n = 4^m ≥ 4`.
#[derive(Debug, Clone)]
pub struct CannonMm<V> {
    _marker: PhantomData<V>,
}

impl<V> Default for CannonMm<V> {
    fn default() -> Self {
        CannonMm { _marker: PhantomData }
    }
}

impl<V> CannonMm<V> {
    /// Whether `n` is a supported size (`4^m`, `m ≥ 1`).
    pub fn supports(n: usize) -> bool {
        n >= 4 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2)
    }
}

fn ingest<V>(st: &mut CannonState<V>, inbox: &mut Inbox<'_, CannonMsg<V>>) {
    for msg in inbox.drain(..) {
        match msg {
            CannonMsg::A(v) => st.a = v,
            CannonMsg::B(v) => st.b = v,
        }
    }
}

impl<V: Semiring> NobAlgorithm for CannonMm<V> {
    type State = CannonState<V>;
    type Msg = CannonMsg<V>;
    type Input = MmInput<V>;
    type Output = Matrix<V>;

    fn name(&self) -> String {
        "mm-cannon".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &MmInput<V>) -> Vec<CannonState<V>> {
        assert!(Self::supports(n), "CannonMm supports n = 4^m, got {n}");
        assert_eq!(input.n(), n);
        (0..n)
            .map(|vp| {
                let (i, j) = morton_decode(vp);
                CannonState {
                    a: input.a.get(i, j).clone(),
                    b: input.b.get(i, j).clone(),
                    c: V::zero(),
                }
            })
            .collect()
    }

    fn build(&self, n: usize) -> Program<CannonState<V>, CannonMsg<V>> {
        assert!(Self::supports(n), "CannonMm supports n = 4^m, got {n}");
        let s = 1usize << (n.trailing_zeros() / 2);
        let mut prog = Program::new(n, n);

        // Initial skew: A[i,j] -> (i, j−i), B[i,j] -> (i−j, j) (mod s).
        // Every superstep of the systolic schedule is a fixed block shift —
        // the canonical oblivious pattern, declared as a route.
        prog.step_oblivious(
            0,
            "cannon-skew",
            2,
            move |ctx: &Ctx, k| {
                let (i, j) = morton_decode(ctx.vp);
                if k == 0 {
                    Route::Data(morton_encode(i, (j + s - i % s) % s))
                } else {
                    Route::Data(morton_encode((i + s - j % s) % s, j))
                }
            },
            move |st: &mut CannonState<V>, _ctx, _inbox, out| {
                out.send(CannonMsg::A(st.a.clone()));
                out.send(CannonMsg::B(st.b.clone()));
            },
        );

        // √n systolic rounds: multiply-accumulate, then shift A left / B up.
        for q in 0..s {
            let shifts = q + 1 < s;
            prog.step_oblivious(
                0,
                "cannon-round",
                if shifts { 2 } else { 0 },
                move |ctx: &Ctx, k| {
                    let (i, j) = morton_decode(ctx.vp);
                    if k == 0 {
                        Route::Data(morton_encode(i, (j + s - 1) % s))
                    } else {
                        Route::Data(morton_encode((i + s - 1) % s, j))
                    }
                },
                move |st, _ctx, inbox, out| {
                    ingest(st, inbox);
                    st.c = st.c.add(&st.a.mul(&st.b));
                    if shifts {
                        out.send(CannonMsg::A(st.a.clone()));
                        out.send(CannonMsg::B(st.b.clone()));
                    }
                },
            );
        }
        prog
    }

    fn extract(&self, n: usize, states: Vec<CannonState<V>>) -> Matrix<V> {
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
    use crate::mm::standard::RecursiveMm;
    use crate::semiring::WrapU64;
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
    fn multiplies_correctly() {
        for &s in &[2usize, 4, 8, 16] {
            let input = random_input(s, s as u64 * 3 + 1);
            let expect = input.a.mul_reference(&input.b);
            let alg = CannonMm::<WrapU64>::default();
            let (got, _) = execute(&alg, s * s, &input, &RunOptions::default()).unwrap();
            assert_eq!(got, expect, "failed at side {s}");
        }
    }

    #[test]
    fn superstep_count_is_sqrt_n() {
        let alg = CannonMm::<WrapU64>::default();
        let input = random_input(16, 2);
        let (_, trace) = execute(&alg, 256, &input, &RunOptions::default()).unwrap();
        assert_eq!(trace.superstep_count(), 17); // skew + 16 rounds
        assert_eq!(trace.s_counts()[0], 17);
    }

    #[test]
    fn folding_preserves_output() {
        let input = random_input(8, 77);
        let alg = CannonMm::<WrapU64>::default();
        let (full, _) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
        for p in [2usize, 4, 16] {
            let (out, _) = execute_folded(&alg, 64, &input, p, &RunOptions::default()).unwrap();
            assert_eq!(out, full);
        }
    }

    #[test]
    fn recursive_mm_beats_cannon_in_the_evaluation_model() {
        // Thm 4.2 against the flat baseline: at n = 4096 the recursive
        // algorithm's H is strictly smaller for every p, on both the
        // bandwidth (σ = 0) and the latency-dominated (σ large) regimes.
        let n = 4096usize;
        let input = random_input(64, 5);
        let (_, t_rec) =
            execute(&RecursiveMm::<WrapU64>::new(false), n, &input, &RunOptions::default())
                .unwrap();
        let (_, t_can) =
            execute(&CannonMm::<WrapU64>::default(), n, &input, &RunOptions::default()).unwrap();
        for p in [64usize, 512, 4096] {
            for sigma in [0.0, 64.0] {
                let hr = t_rec.comm_complexity(p, sigma);
                let hc = t_can.comm_complexity(p, sigma);
                assert!(hr < hc, "p={p} sigma={sigma}: recursive {hr} vs cannon {hc}");
            }
        }
    }
}
