//! Executable forms of the paper's Section-3 machinery: Lemma 3.1, Lemma 3.3,
//! the optimality theorem (Thm. 3.4) and the Section-5 extension (Thm. 5.3).
//!
//! A simulator cannot quantify over the whole algorithm class `C`, so the
//! checkers here work on *pairs* of concrete traces: the network-oblivious
//! algorithm `A` and a competitor `C ∈ C`. From the pair we *measure* the
//! largest premise constant `β` (the evaluation-model optimality degree of
//! `A` against `C` at exactly the `σ` values the proof of Thm. 3.4
//! instantiates), measure the wiseness `α` of `A`, and then verify the
//! conclusion `D_A ≤ (1+α)/(αβ) · D_C` on any admissible D-BSP machine.
//!
//! Because Thm. 3.4 is a theorem, a violation reported by these checkers
//! indicates a bug in the metric pipeline — which is precisely what the
//! property tests in `tests/` exploit.

use crate::metrics::CommTrace;
use crate::model::{log2_exact, DbspMachine};

/// The σ-ranges of the premise of Thm. 3.4: `σ^m_j ≤ σ ≤ σ^M_j` for
/// `0 ≤ j < log p̄` (entry `j` of each vector is `σ^m_j` / `σ^M_j`).
///
/// `σ^M` entries may be `f64::INFINITY` (as in Cor. 4.9).
#[derive(Debug, Clone, PartialEq)]
pub struct SigmaRanges {
    /// Lower endpoints `σ^m_0 … σ^m_{log p̄ − 1}`.
    pub sigma_min: Vec<f64>,
    /// Upper endpoints `σ^M_0 … σ^M_{log p̄ − 1}`.
    pub sigma_max: Vec<f64>,
}

impl SigmaRanges {
    /// Ranges `[0, ∞)` at every level (the least restrictive premise).
    pub fn unrestricted(p_bar: usize) -> Self {
        let len = log2_exact(p_bar).max(1) as usize;
        SigmaRanges { sigma_min: vec![0.0; len], sigma_max: vec![f64::INFINITY; len] }
    }

    /// Ranges `[0, σ^M_j]` with the given upper endpoints.
    pub fn zero_to(sigma_max: Vec<f64>) -> Self {
        SigmaRanges { sigma_min: vec![0.0; sigma_max.len()], sigma_max }
    }

    /// The window `[ψ^m_p, ψ^M_p]` of Thm. 3.4 for a target machine size `p`:
    ///
    /// ```text
    /// ψ^m_p = max_{1≤k≤log p} σ^m_{k−1}·2^k / p,
    /// ψ^M_p = min_{1≤k≤log p} σ^M_{k−1}·2^k / p.
    /// ```
    ///
    /// The machine condition of the theorem is `ψ^m_p ≤ ℓ_i/g_i ≤ ψ^M_p`.
    pub fn psi_window(&self, p: usize) -> (f64, f64) {
        let log_p = log2_exact(p).max(1);
        let mut psi_m = 0.0f64;
        let mut psi_big = f64::INFINITY;
        for k in 1..=log_p {
            let scale = (1u64 << k) as f64 / p as f64;
            psi_m = psi_m.max(self.sigma_min[(k - 1) as usize] * scale);
            psi_big = psi_big.min(self.sigma_max[(k - 1) as usize] * scale);
        }
        (psi_m, psi_big)
    }
}

/// Lemma 3.3: if `Σ_{i<k} X_i ≤ Σ_{i<k} Y_i` for every `1 ≤ k ≤ m` and `f` is
/// non-increasing and non-negative, then `Σ X_i f_i ≤ Σ Y_i f_i`.
///
/// Returns `None` if the premise fails, otherwise `Some(Σ X f ≤ Σ Y f)` —
/// which the lemma guarantees is `true` (used by property tests).
pub fn lemma_3_3(xs: &[f64], ys: &[f64], fs: &[f64]) -> Option<bool> {
    assert!(xs.len() == ys.len() && ys.len() == fs.len());
    assert!(fs.windows(2).all(|w| w[0] >= w[1]) && fs.iter().all(|&f| f >= 0.0));
    let mut sx = 0.0;
    let mut sy = 0.0;
    for k in 0..xs.len() {
        sx += xs[k];
        sy += ys[k];
        if sx > sy + 1e-9 * sy.abs().max(1.0) {
            return None;
        }
    }
    let dot = |a: &[f64]| a.iter().zip(fs).map(|(x, f)| x * f).sum::<f64>();
    Some(dot(xs) <= dot(ys) + 1e-6 * dot(ys).abs().max(1.0))
}

/// Lemma 3.1 for a recorded trace: for every `1 ≤ j ≤ log p`,
/// `Σ_{i<j} F^i(n, 2^j) ≤ (p/2^j)·Σ_{i<j} F^i(n, p)`.
///
/// Holds for any message pattern by construction; a failure indicates a bug
/// in the degree bookkeeping.
pub fn lemma_3_1_holds(trace: &CommTrace, p: usize) -> bool {
    let at_p = trace.fold(p);
    let log_p = at_p.f.len() as u32;
    for j in 1..=log_p {
        let lhs: u64 = trace.fold(1usize << j).f.iter().sum();
        let rhs: u64 = at_p.f[..j as usize].iter().sum();
        let scale = (p >> j) as u64;
        if lhs > scale * rhs {
            return false;
        }
    }
    true
}

/// `H` as an affine function of σ at a given fold: `H(σ) = F + S·σ`.
fn h_affine(trace: &CommTrace, p: usize) -> (f64, f64) {
    let m = trace.fold(p);
    (m.total_f() as f64, m.total_s() as f64)
}

/// Ratio `H_C(σ)/H_A(σ)` handling `σ = ∞` via the slope ratio; `None` when
/// both sides vanish (vacuous).
fn h_ratio(a: (f64, f64), c: (f64, f64), sigma: f64) -> Option<f64> {
    let (num, den) =
        if sigma.is_infinite() { (c.1, a.1) } else { (c.0 + sigma * c.1, a.0 + sigma * a.1) };
    if den == 0.0 && num == 0.0 {
        None
    } else if den == 0.0 {
        Some(f64::INFINITY)
    } else {
        Some(num / den)
    }
}

/// The measured premise constant of Thm. 3.4 for the pair `(A, C)` and target
/// machine size `p`: the largest `β ≤ 1` such that
/// `H_A(n, 2^j, σ) ≤ (1/β)·H_C(n, 2^j, σ)` at the `σ` values the proof uses
/// (`σ = ψ·p/2^j` for `ψ ∈ {ψ^m_p, ψ^M_p}`, `1 ≤ j ≤ log p`).
pub fn beta_measured(a: &CommTrace, c: &CommTrace, ranges: &SigmaRanges, p: usize) -> f64 {
    let (psi_m, psi_big) = ranges.psi_window(p);
    let log_p = log2_exact(p).max(1);
    let mut beta = 1.0f64;
    for j in 1..=log_p {
        let fold = 1usize << j;
        let ha = h_affine(a, fold);
        let hc = h_affine(c, fold);
        for psi in [psi_m, psi_big] {
            let sigma =
                if psi.is_infinite() { f64::INFINITY } else { psi * p as f64 / fold as f64 };
            if let Some(r) = h_ratio(ha, hc, sigma) {
                beta = beta.min(r);
            }
        }
    }
    beta.max(0.0)
}

/// Result of checking Thm. 3.4's conclusion on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCheck {
    /// The machine's name (preset label).
    pub machine: String,
    /// Number of processors.
    pub p: usize,
    /// Communication time of the oblivious algorithm `A`.
    pub d_a: f64,
    /// Communication time of the competitor `C`.
    pub d_c: f64,
    /// The theorem's bound `(1+α)/(αβ)·D_C`.
    pub bound: f64,
    /// Whether the machine satisfied the admissibility conditions (monotone
    /// `g`, monotone `ℓ/g`, and `ℓ_i/g_i` within the ψ-window).
    pub admissible: bool,
    /// Whether `D_A ≤ bound` (meaningful only when `admissible`).
    pub holds: bool,
}

/// Full report of a Thm. 3.4 verification over a family of machines.
#[derive(Debug, Clone, PartialEq)]
pub struct Thm34Report {
    /// Wiseness of `A` at `p̄` (clamped to `(0, 1]` as the theorem requires).
    pub alpha: f64,
    /// Measured premise constant `β` (see [`beta_measured`]; the worst over
    /// all machine sizes appearing in `machines`).
    pub beta: f64,
    /// `(1+α)/(αβ)` — the optimality loss guaranteed by the theorem.
    pub factor: f64,
    /// Per-machine outcomes.
    pub machines: Vec<MachineCheck>,
}

impl Thm34Report {
    /// Whether the theorem's conclusion held on every admissible machine.
    pub fn all_hold(&self) -> bool {
        self.machines.iter().filter(|m| m.admissible).all(|m| m.holds)
    }
}

/// Verifies the conclusion of Thm. 3.4 for the pair `(A, C)` on each machine.
///
/// `p_bar` is the wiseness reference `p̄` (machines must have `p ≤ p̄`);
/// `ranges` the premise σ-intervals. Machines failing the admissibility
/// conditions are reported with `admissible = false` and are not required to
/// satisfy the bound.
pub fn check_thm_3_4(
    a: &CommTrace,
    c: &CommTrace,
    p_bar: usize,
    ranges: &SigmaRanges,
    machines: &[DbspMachine],
) -> Thm34Report {
    let alpha = crate::wiseness::alpha_max(a, p_bar).alpha.min(1.0);
    let mut beta = 1.0f64;
    let mut checks = Vec::with_capacity(machines.len());
    for m in machines {
        let (psi_m, psi_big) = ranges.psi_window(m.p);
        let ratios = m.ell_over_g();
        let admissible = m.p <= p_bar
            && m.is_monotone()
            && psi_m <= psi_big
            && ratios.iter().all(|&r| r >= psi_m - 1e-12 && r <= psi_big + 1e-12);
        let b = beta_measured(a, c, ranges, m.p);
        if admissible {
            beta = beta.min(b);
        }
        let d_a = a.comm_time(m);
        let d_c = c.comm_time(m);
        let factor =
            if alpha > 0.0 && b > 0.0 { (1.0 + alpha) / (alpha * b) } else { f64::INFINITY };
        let bound = factor * d_c;
        // A non-finite factor means the premise degenerated (α or β = 0): the
        // theorem is vacuous on this machine.
        let holds = !factor.is_finite() || d_a <= bound * (1.0 + 1e-9);
        checks.push(MachineCheck {
            machine: m.name.clone(),
            p: m.p,
            d_a,
            d_c,
            bound,
            admissible,
            holds,
        });
    }
    let factor =
        if alpha > 0.0 && beta > 0.0 { (1.0 + alpha) / (alpha * beta) } else { f64::INFINITY };
    Thm34Report { alpha, beta, factor, machines: checks }
}

/// The optimality factor of Thm. 5.3: an algorithm that is `β`-optimal in the
/// evaluation model and `(γ, p̄)-full` is `Θ(β / ((1 + 1/γ)·log² p̄))`-optimal
/// on admissible D-BSP machines when run under the ascend–descend protocol.
pub fn thm_5_3_factor(beta: f64, gamma: f64, p_bar: usize) -> f64 {
    let lp = (log2_exact(p_bar).max(1)) as f64;
    if gamma <= 0.0 || beta <= 0.0 {
        return 0.0;
    }
    beta / ((1.0 + 1.0 / gamma) * lp * lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SuperstepRecord;

    fn bisection_trace(log_v: u32, reps: usize) -> CommTrace {
        let v = 1usize << log_v;
        let mut t = CommTrace::new(v, v);
        for _ in 0..reps {
            let msgs: Vec<(usize, usize)> = (0..v / 2).map(|k| (k, k + v / 2)).collect();
            t.steps.push(SuperstepRecord::from_messages(0, log_v, msgs));
        }
        t
    }

    #[test]
    fn sigma_window() {
        // σ^m = 0 everywhere, σ^M_j = 8/2^j at p̄ = 8.
        let r = SigmaRanges::zero_to(vec![8.0, 4.0, 2.0]);
        let (lo, hi) = r.psi_window(8);
        assert_eq!(lo, 0.0);
        // min over k of σ^M_{k−1}·2^k/8 = min(8·2/8, 4·4/8, 2·8/8) = 2.
        assert_eq!(hi, 2.0);
    }

    #[test]
    fn lemma_3_3_basic() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 2.0, 3.0];
        let fs = [3.0, 2.0, 1.0];
        assert_eq!(lemma_3_3(&xs, &ys, &fs), Some(true));
        // Premise violated at k = 1.
        let xs = [3.0, 0.0, 0.0];
        let ys = [2.0, 2.0, 3.0];
        assert_eq!(lemma_3_3(&xs, &ys, &fs), None);
    }

    #[test]
    fn lemma_3_1_on_simple_traces() {
        assert!(lemma_3_1_holds(&bisection_trace(4, 3), 16));
        // Unbalanced single-sender pattern also satisfies the lemma.
        let mut t = CommTrace::new(16, 16);
        t.steps.push(SuperstepRecord::from_counted_edges(0, 4, &[(0, 8, 77)]));
        assert!(lemma_3_1_holds(&t, 16));
    }

    #[test]
    fn beta_of_identical_traces_is_one() {
        let t = bisection_trace(3, 2);
        let r = SigmaRanges::unrestricted(8);
        assert_eq!(beta_measured(&t, &t, &r, 8), 1.0);
    }

    #[test]
    fn thm_3_4_holds_for_identical_traces() {
        let t = bisection_trace(3, 2);
        let machines = vec![
            DbspMachine::new(8, vec![4.0, 2.0, 1.0], vec![16.0, 4.0, 1.0]).unwrap().named("geo"),
            DbspMachine::new(8, vec![1.0; 3], vec![2.0; 3]).unwrap().named("uniform"),
        ];
        let r = SigmaRanges::unrestricted(8);
        let rep = check_thm_3_4(&t, &t, 8, &r, &machines);
        assert!(rep.all_hold(), "{rep:?}");
        assert_eq!(rep.beta, 1.0);
        assert_eq!(rep.alpha, 1.0);
        // factor (1+α)/(αβ) = 2 for α = β = 1.
        assert_eq!(rep.factor, 2.0);
    }

    #[test]
    fn inadmissible_machines_are_flagged() {
        let t = bisection_trace(3, 1);
        // g increasing: not monotone.
        let bad = DbspMachine::new(8, vec![1.0, 2.0, 3.0], vec![3.0, 3.0, 3.0]).unwrap();
        let r = SigmaRanges::unrestricted(8);
        let rep = check_thm_3_4(&t, &t, 8, &r, &[bad]);
        assert!(!rep.machines[0].admissible);
        assert!(rep.all_hold()); // vacuously: no admissible machines.
    }

    #[test]
    fn beta_detects_asymmetry() {
        // A twice as expensive as C: β = 1/2 (A is only 1/2-optimal vs C).
        let a = bisection_trace(3, 4);
        let c = bisection_trace(3, 2);
        let r = SigmaRanges::unrestricted(8);
        assert_eq!(beta_measured(&a, &c, &r, 8), 0.5);
        // The better algorithm measures β = 1 (clamped).
        assert_eq!(beta_measured(&c, &a, &r, 8), 1.0);
    }

    #[test]
    fn psi_window_with_infinite_upper_bounds() {
        let r = SigmaRanges::unrestricted(8);
        let (lo, hi) = r.psi_window(8);
        assert_eq!(lo, 0.0);
        assert!(hi.is_infinite());
        // Mixed finite/infinite: the finite entry rules.
        let r = SigmaRanges {
            sigma_min: vec![0.0; 3],
            sigma_max: vec![f64::INFINITY, 8.0, f64::INFINITY],
        };
        let (_, hi) = r.psi_window(8);
        assert_eq!(hi, 8.0 * 4.0 / 8.0); // σ^M_1·2²/8
    }

    #[test]
    fn nonempty_sigma_window_is_required_for_admissibility() {
        // σ^m too large relative to σ^M at another level → ψm > ψM: the
        // theorem's footnote-4 condition fails and machines are inadmissible.
        let t = bisection_trace(3, 1);
        let r = SigmaRanges { sigma_min: vec![100.0, 0.0, 0.0], sigma_max: vec![200.0, 1.0, 1.0] };
        let (lo, hi) = r.psi_window(8);
        assert!(lo > hi);
        let m = DbspMachine::new(8, vec![1.0; 3], vec![1.0; 3]).unwrap();
        let rep = check_thm_3_4(&t, &t, 8, &r, &[m]);
        assert!(!rep.machines[0].admissible);
    }

    #[test]
    fn thm_5_3_factor_shape() {
        // β = 1, γ = 1, p̄ = 16: factor = 1/(2·16) = 1/32.
        assert!((thm_5_3_factor(1.0, 1.0, 16) - 1.0 / 32.0).abs() < 1e-12);
        assert_eq!(thm_5_3_factor(1.0, 0.0, 16), 0.0);
    }
}
