//! (α, p)-wiseness (Definition 3.2).
//!
//! A static network-oblivious algorithm specified on `M(v(n))` is *(α, p)-wise*
//! if for every `1 ≤ j ≤ log p`
//!
//! ```text
//! Σ_{i<j} F^i(n, 2^j)  ≥  α · (p / 2^j) · Σ_{i<j} F^i(n, p).
//! ```
//!
//! Wiseness measures how tight the folding upper bound of Lemma 3.1 is: it
//! asks that, on average, communication observed at coarse granularity does
//! not evaporate when the algorithm is folded. `α = 1` means the bound is
//! tight at every fold; the paper's algorithms achieve `α = Θ(1)` by adding
//! dummy messages.

use crate::metrics::CommTrace;

/// The outcome of a wiseness measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wiseness {
    /// The largest `α` for which the trace is (α, p)-wise. `f64::INFINITY`
    /// when every constraint is vacuous (the algorithm never communicates at
    /// fold `p`), in which case any α works.
    pub alpha: f64,
    /// The fold `j` (as a processor count `2^j`) at which the minimum was
    /// attained, if any constraint was binding.
    pub binding_fold: Option<usize>,
    /// The `p` the measurement was taken against.
    pub p: usize,
}

/// Computes the largest `α` such that the trace is (α, p)-wise, together with
/// the fold where the constraint binds.
///
/// ```
/// use nob_core::metrics::{CommTrace, SuperstepRecord};
/// use nob_core::wiseness::alpha_max;
///
/// // The paper's non-wise pattern: VP0 sends the whole volume to VP_{v/2}.
/// let mut t = CommTrace::new(16, 16);
/// t.steps.push(SuperstepRecord::from_counted_edges(0, 4, &[(0, 8, 100)]));
/// assert!((alpha_max(&t, 16).alpha - 2.0 / 16.0).abs() < 1e-12);
/// ```
///
/// # Panics
/// Panics if `p` is not a power of two in `[2, v]`.
pub fn alpha_max(trace: &CommTrace, p: usize) -> Wiseness {
    let at_p = trace.fold(p);
    let log_p = at_p.f.len() as u32;
    let mut alpha = f64::INFINITY;
    let mut binding = None;
    for j in 1..=log_p {
        let lhs: u64 = trace.fold(1usize << j).f.iter().sum();
        let rhs: u64 = at_p.f[..j as usize].iter().sum();
        if rhs == 0 {
            // Vacuous: no communication survives at fold p among labels < j.
            continue;
        }
        let ratio = (lhs as f64) * (1u64 << j) as f64 / (p as f64 * rhs as f64);
        if ratio < alpha {
            alpha = ratio;
            binding = Some(1usize << j);
        }
    }
    Wiseness { alpha, binding_fold: binding, p }
}

/// Checks Definition 3.2 directly for a given `α`.
pub fn is_wise(trace: &CommTrace, alpha: f64, p: usize) -> bool {
    alpha_max(trace, p).alpha >= alpha
}

/// The monotonicity fact noted after Definition 3.2: an (α, p)-wise algorithm
/// is also (α′, p′)-wise for `p′ ≤ p`, `α′ ≤ α`. Exposed for tests.
pub fn alpha_profile(trace: &CommTrace, p_max: usize) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    let mut p = 2usize;
    while p <= p_max {
        out.push((p, alpha_max(trace, p).alpha));
        p *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SuperstepRecord;

    /// The paper's canonical *non-wise* example: a single 0-superstep where
    /// VP0 sends n messages to VP_{v/2}.
    fn unbalanced_trace(log_v: u32, n: u64) -> CommTrace {
        let v = 1usize << log_v;
        let mut t = CommTrace::new(v, n as usize);
        t.steps
            .push(SuperstepRecord::from_counted_edges(0, log_v, &[(0, v / 2, n)]));
        t
    }

    /// A perfectly balanced bisection exchange: every VP sends one message to
    /// its partner in the opposite half.
    fn balanced_trace(log_v: u32) -> CommTrace {
        let v = 1usize << log_v;
        let msgs: Vec<(usize, usize)> = (0..v / 2).map(|k| (k, k + v / 2)).collect();
        let mut t = CommTrace::new(v, v);
        t.steps.push(SuperstepRecord::from_messages(0, log_v, msgs));
        t
    }

    #[test]
    fn unbalanced_pattern_has_alpha_one_over_p() {
        // F^0(n, 2^j) = n for every j, so α = min_j 2^j·n/(p·n) = 2/p.
        let t = unbalanced_trace(4, 100);
        let w = alpha_max(&t, 16);
        assert!((w.alpha - 2.0 / 16.0).abs() < 1e-12, "alpha = {}", w.alpha);
        assert_eq!(w.binding_fold, Some(2));
    }

    #[test]
    fn balanced_pattern_is_one_wise() {
        // F^0(n, 2^j) = (v/2)/2^{j-1}·... : each proc of v/2^j VPs sends
        // v/2^j messages (every VP in the lower half), receives v/2^j in the
        // upper half: h = v/2^j, so Σ F = v/2^j and α = 2^j·(v/2^j)/(p·(v/p)) = 1.
        let t = balanced_trace(4);
        let w = alpha_max(&t, 16);
        assert!((w.alpha - 1.0).abs() < 1e-12);
        assert!(is_wise(&t, 0.99, 16));
    }

    #[test]
    fn wiseness_is_monotone_in_p() {
        let t = unbalanced_trace(5, 7);
        let prof = alpha_profile(&t, 32);
        for w in prof.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn silent_trace_is_vacuously_wise() {
        let t = CommTrace::new(8, 8);
        assert_eq!(alpha_max(&t, 8).alpha, f64::INFINITY);
    }
}
