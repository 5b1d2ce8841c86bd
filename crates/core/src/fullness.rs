//! (γ, p)-fullness (Definition 5.2).
//!
//! A static network-oblivious algorithm on `M(v(n))` is *(γ, p)-full* if for
//! every `1 ≤ j ≤ log p`
//!
//! ```text
//! Σ_{i<j} F^i(n, 2^j)  ≥  γ · (p / 2^j) · Σ_{i<j} S^i(n).
//! ```
//!
//! Fullness is strictly weaker than wiseness (the single-sender pattern that
//! is only (Θ(1/p), p)-wise is (Θ(1), p)-full provided it sends enough
//! messages); it suffices for the Section-5 optimality transfer (Thm. 5.3)
//! when algorithms are executed with the ascend–descend protocol.

use crate::metrics::CommTrace;

/// The outcome of a fullness measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fullness {
    /// Largest `γ` for which the trace is (γ, p)-full (`f64::INFINITY` when
    /// the algorithm executes no superstep with label `< log p`).
    pub gamma: f64,
    /// The fold `2^j` at which the constraint binds, if any.
    pub binding_fold: Option<usize>,
    /// The `p` the measurement was taken against.
    pub p: usize,
}

/// Computes the largest `γ` such that the trace is (γ, p)-full.
///
/// # Panics
/// Panics if `p` is not a power of two in `[2, v]`.
pub fn gamma_max(trace: &CommTrace, p: usize) -> Fullness {
    let s_all = trace.s_counts();
    let log_p = crate::model::log2_exact(p);
    let mut gamma = f64::INFINITY;
    let mut binding = None;
    for j in 1..=log_p {
        let lhs: u64 = trace.fold(1usize << j).f.iter().sum();
        let rhs: u64 = s_all[..j as usize].iter().sum();
        if rhs == 0 {
            continue;
        }
        let ratio = (lhs as f64) * (1u64 << j) as f64 / (p as f64 * rhs as f64);
        if ratio < gamma {
            gamma = ratio;
            binding = Some(1usize << j);
        }
    }
    Fullness { gamma, binding_fold: binding, p }
}

/// Checks Definition 5.2 directly for a given `γ`.
pub fn is_full(trace: &CommTrace, gamma: f64, p: usize) -> bool {
    gamma_max(trace, p).gamma >= gamma
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SuperstepRecord;

    fn unbalanced_trace(log_v: u32, n: u64) -> CommTrace {
        let v = 1usize << log_v;
        let mut t = CommTrace::new(v, n as usize);
        t.steps.push(SuperstepRecord::from_counted_edges(0, log_v, &[(0, v / 2, n)]));
        t
    }

    #[test]
    fn single_sender_is_full_but_not_wise() {
        // Section 5's motivating example: one 0-superstep, VP0 sends n = v
        // messages to VP_{v/2}. F^0(n, 2^j) = n, S^0 = 1, so
        // γ = min_j 2^j·n/(p·1) = 2n/p = 2 when n = p = v.
        let t = unbalanced_trace(4, 16);
        let f = gamma_max(&t, 16);
        assert!((f.gamma - 2.0).abs() < 1e-12, "gamma = {}", f.gamma);
        // ...while wiseness degrades to 2/p:
        let w = crate::wiseness::alpha_max(&t, 16);
        assert!(w.alpha < 0.2);
    }

    #[test]
    fn empty_supersteps_hurt_fullness() {
        // A trace with one message-bearing 0-superstep and many silent ones.
        let v = 8usize;
        let mut t = CommTrace::new(v, v);
        t.steps.push(SuperstepRecord::from_counted_edges(0, 3, &[(0, 4, 4)]));
        for _ in 0..7 {
            t.steps.push(SuperstepRecord::from_counted_edges(0, 3, &[]));
        }
        // Σ S^i = 8, F at fold 2 is 4: γ = min_j 2^j·F_j/(8·8): j=1 gives 8/64 = 1/8... actually
        // lhs at j=1 is 4: 2·4/(8·8) = 1/8.
        let f = gamma_max(&t, 8);
        assert!((f.gamma - 0.125).abs() < 1e-12, "gamma = {}", f.gamma);
        assert!(is_full(&t, 0.1, 8));
        assert!(!is_full(&t, 0.2, 8));
    }
}
