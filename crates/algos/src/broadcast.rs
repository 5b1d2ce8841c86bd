//! The n-broadcast problem (Section 4.5): copy `V[0]` to all other entries.
//!
//! Broadcast is the paper's *negative* example: Theorem 4.15 shows any
//! class-C algorithm on `M(p, σ)` needs `H = Ω(max{2,σ}·log_{max{2,σ}} p)`,
//! and the matching algorithm ([`AwareBroadcast`]) must *know* σ to pick its
//! fan-out κ. Theorem 4.16 shows that no network-oblivious algorithm can be
//! `Θ(1)`-optimal across substantially different σ: with `t` supersteps,
//! `H_A = Ω(t·(max{2,σ} + p^{1/t}))`, so a fan-out fixed obliviously is wrong
//! for some σ. [`ObliviousBroadcast`] (the natural cluster-halving tree,
//! `t = log p`) makes the gap concrete: it pays `Θ(log p·(σ + 2))` versus the
//! aware `Θ(σ·log p / log σ)` — a `Θ(log σ)` gap, exactly the
//! `GAP = Ω(log σ₂/(log σ₁ + log log σ₂))` of Thm. 4.16 evaluated at
//! `σ₁ = O(1)`.

use nob_machine::{Ctx, NobAlgorithm, Program, Route};

/// Per-VP state: the entry of `V` held by this VP (`Some` once known).
pub type BroadcastState = Option<u64>;

/// The network-oblivious cluster-halving broadcast: in the `i`-superstep the
/// leader of each `i`-cluster forwards the value to the leader of the sibling
/// `(i+1)`-cluster; after `log v` supersteps every VP holds it.
#[derive(Debug, Clone, Default)]
pub struct ObliviousBroadcast;

impl NobAlgorithm for ObliviousBroadcast {
    type State = BroadcastState;
    type Msg = u64;
    type Input = u64;
    type Output = Vec<u64>;

    fn name(&self) -> String {
        "broadcast-oblivious".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &u64) -> Vec<BroadcastState> {
        let mut states = vec![None; n];
        states[0] = Some(*input);
        states
    }

    fn build(&self, n: usize) -> Program<BroadcastState, u64> {
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        for i in 0..log_v {
            // Static route: the i-cluster leaders forward to the sibling
            // leaders. (Every leader provably holds the value by round i,
            // so the closure's `if let Some` always fires for them.)
            prog.step_oblivious(
                i,
                "bcast-halve",
                1,
                move |ctx: &Ctx, _| {
                    let cluster = ctx.v >> i;
                    if ctx.vp.is_multiple_of(cluster) {
                        Route::Data(ctx.vp + cluster / 2)
                    } else {
                        Route::End
                    }
                },
                move |st, ctx, inbox, out| {
                    if let Some(m) = inbox.pop() {
                        *st = Some(m);
                    }
                    if ctx.vp % (ctx.v >> i) == 0 {
                        if let Some(val) = *st {
                            out.send(val);
                        }
                    }
                },
            );
        }
        prog.step_oblivious(
            log_v - 1,
            "bcast-consume",
            0,
            |_: &Ctx, _| Route::Skip,
            |st, _ctx, inbox, _out| {
                if let Some(m) = inbox.pop() {
                    *st = Some(m);
                }
            },
        );
        prog
    }

    fn extract(&self, _n: usize, states: Vec<BroadcastState>) -> Vec<u64> {
        states.into_iter().map(|s| s.expect("broadcast incomplete")).collect()
    }
}

/// The σ-aware broadcast of Section 4.5: a κ-ary tree with
/// `κ = 2^⌈log₂ max{2, σ}⌉`. In superstep `i`, each holder `P_{j·v/κ^i}`
/// sends the value to the κ leaders of the κ-way split of its block. With
/// `t = Θ(log_κ p)` supersteps its communication complexity matches the
/// Theorem 4.15 lower bound — but κ is a function of σ, so the algorithm is
/// parameter-*aware* (this is the knowledge Thm. 4.16 proves necessary).
#[derive(Debug, Clone)]
pub struct AwareBroadcast {
    /// The fan-out κ (a power of two ≥ 2). Choose with [`AwareBroadcast::for_sigma`].
    pub kappa: usize,
}

impl AwareBroadcast {
    /// Picks the optimal fan-out for latency σ: the smallest power of two
    /// `≥ max{2, σ}`.
    pub fn for_sigma(sigma: f64) -> Self {
        let k = sigma.max(2.0).ceil() as usize;
        AwareBroadcast { kappa: k.next_power_of_two() }
    }
}

impl NobAlgorithm for AwareBroadcast {
    type State = BroadcastState;
    type Msg = u64;
    type Input = u64;
    type Output = Vec<u64>;

    fn name(&self) -> String {
        format!("broadcast-aware(kappa={})", self.kappa)
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &u64) -> Vec<BroadcastState> {
        let mut states = vec![None; n];
        states[0] = Some(*input);
        states
    }

    fn build(&self, n: usize) -> Program<BroadcastState, u64> {
        assert!(self.kappa.is_power_of_two() && self.kappa >= 2);
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        let kappa = self.kappa;
        // Holder spacing per round: v, v/κ, v/κ², …, clamped at 1.
        let mut span = n;
        while span > 1 {
            let next = (span / kappa).max(1);
            let label = log_v - nob_core::model::log2_exact(span);
            // Static κ-ary fan-out from each holder to its block's leaders.
            prog.step_oblivious(
                label,
                "bcast-kary",
                span / next - 1,
                move |ctx: &Ctx, k| {
                    if ctx.vp.is_multiple_of(span) {
                        Route::Data(ctx.vp + (k + 1) * next)
                    } else {
                        Route::End
                    }
                },
                move |st, ctx, inbox, out| {
                    if let Some(m) = inbox.pop() {
                        *st = Some(m);
                    }
                    if ctx.vp % span == 0 {
                        if let Some(val) = *st {
                            for _ in 1..span / next {
                                out.send(val);
                            }
                        }
                    }
                },
            );
            span = next;
        }
        prog.step_oblivious(
            log_v - 1,
            "bcast-consume",
            0,
            |_: &Ctx, _| Route::Skip,
            |st, _ctx, inbox, _out| {
                if let Some(m) = inbox.pop() {
                    *st = Some(m);
                }
            },
        );
        prog
    }

    fn extract(&self, _n: usize, states: Vec<BroadcastState>) -> Vec<u64> {
        states.into_iter().map(|s| s.expect("broadcast incomplete")).collect()
    }
}

/// The measured optimality gap of an oblivious broadcast at `(p, σ)`:
/// `H_oblivious / H_best-aware` (Thm. 4.16's `GAP`, pointwise).
pub fn measured_gap(
    oblivious: &nob_core::CommTrace,
    aware: &nob_core::CommTrace,
    p: usize,
    sigma: f64,
) -> f64 {
    oblivious.comm_complexity(p, sigma) / aware.comm_complexity(p, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::folding::executed_folding;
    use nob_machine::{execute, RunOptions};

    #[test]
    fn oblivious_broadcast_reaches_everyone() {
        let (out, trace) = execute(&ObliviousBroadcast, 64, &42, &RunOptions::default()).unwrap();
        assert!(out.iter().all(|&x| x == 42));
        // One superstep per level, degree 1 each.
        assert_eq!(trace.s_counts(), vec![1, 1, 1, 1, 1, 2]);
        assert_eq!(trace.max_degree(), 1);
    }

    #[test]
    fn aware_broadcast_reaches_everyone_for_all_kappa() {
        for kappa in [2usize, 4, 8, 64] {
            let alg = AwareBroadcast { kappa };
            let (out, _) = execute(&alg, 64, &7, &RunOptions::default()).unwrap();
            assert!(out.iter().all(|&x| x == 7), "kappa = {kappa}");
        }
    }

    #[test]
    fn folding_preserves_output() {
        for p in [2usize, 8, 32] {
            let (out, _) = executed_folding(&ObliviousBroadcast, 64, &9, p);
            assert!(out.iter().all(|&x| x == 9));
            let alg = AwareBroadcast { kappa: 8 };
            let (out, _) = executed_folding(&alg, 64, &9, p);
            assert!(out.iter().all(|&x| x == 9));
        }
    }

    #[test]
    fn aware_matches_the_lower_bound_shape() {
        // H_aware(p, σ) / LB(p, σ) stays bounded across a wide σ range and
        // every fold p when κ is tuned to σ (Theorem 4.15 tightness).
        let n = 1 << 12;
        for sigma in [0.0, 2.0, 16.0, 256.0, 4096.0] {
            let alg = AwareBroadcast::for_sigma(sigma);
            let (_, trace) = execute(&alg, n, &1, &RunOptions::default()).unwrap();
            for p in [16usize, 256, n] {
                let measured = trace.comm_complexity(p, sigma);
                let lb = nob_core::lower_bounds::broadcast(p, sigma);
                let ratio = measured / lb;
                assert!(ratio < 8.0, "p={p} sigma={sigma}: measured/LB = {ratio}");
            }
        }
    }

    #[test]
    fn gap_grows_with_sigma_as_thm_4_16_predicts() {
        // The oblivious binary tree is Θ(1)-optimal at σ = O(1) but loses a
        // Θ(log σ) factor at large σ.
        let n = 1 << 12;
        let (_, t_obl) = execute(&ObliviousBroadcast, n, &1, &RunOptions::default()).unwrap();
        let mut last_gap = 0.0;
        for sigma in [2.0, 16.0, 256.0, 4096.0] {
            let aware = AwareBroadcast::for_sigma(sigma);
            let (_, t_aw) = execute(&aware, n, &1, &RunOptions::default()).unwrap();
            let gap = measured_gap(&t_obl, &t_aw, n, sigma);
            assert!(gap >= last_gap * 0.9, "gap should grow: {gap} after {last_gap}");
            last_gap = gap;
        }
        assert!(last_gap > 2.0, "large-sigma gap should exceed a constant: {last_gap}");

        // The obstruction behind it: every *fixed* fan-out κ loses more than
        // a factor 2 to the σ-tuned tree at some σ.
        let sigmas = [0.0, 4.0, 64.0, 1024.0, 16384.0];
        let tuned: Vec<f64> = sigmas
            .iter()
            .map(|&sigma| {
                let alg = AwareBroadcast::for_sigma(sigma);
                let (_, t) = execute(&alg, n, &1, &RunOptions::default()).unwrap();
                t.comm_complexity(n, sigma)
            })
            .collect();
        for kappa in [2usize, 16, 256] {
            let (_, t) = execute(&AwareBroadcast { kappa }, n, &1, &RunOptions::default()).unwrap();
            let worst = sigmas
                .iter()
                .zip(&tuned)
                .map(|(&sigma, &h)| t.comm_complexity(n, sigma) / h)
                .fold(0.0, f64::max);
            assert!(worst > 2.0, "kappa={kappa} is within {worst} of tuned at every sigma");
        }
    }
}
