//! The three models of the framework: `M(v)` (specification), `M(p, σ)`
//! (evaluation) and D-BSP(p, **g**, **ℓ**) (execution machine model).
//!
//! All three share the organization of Section 2 of the paper: a set of
//! CPU/memory nodes, indexed `0..count`, communicating in labelled supersteps.
//! The structs here carry only the *parameters* of each model; executable
//! semantics live in the `nob-machine` crate, and cost evaluation in
//! [`crate::metrics`].

use crate::error::ModelError;

/// The paper's logarithm convention: `log x = max(1, log2 x)`.
///
/// Used wherever a logarithm appears in a cost bound, so that expressions such
/// as `log(n/p)` stay well-defined (and ≥ 1) when `n = p`.
#[inline]
pub fn paper_log2(x: f64) -> f64 {
    debug_assert!(x > 0.0, "paper_log2 of non-positive value");
    x.log2().max(1.0)
}

/// Exact base-2 logarithm of a power of two.
///
/// # Panics
/// Panics in debug builds if `x` is not a positive power of two.
#[inline]
pub fn log2_exact(x: usize) -> u32 {
    debug_assert!(x.is_power_of_two(), "log2_exact({x}): not a power of two");
    x.trailing_zeros()
}

/// Validates that `value` is a power of two, returning its log.
pub fn require_pow2(what: &'static str, value: usize) -> Result<u32, ModelError> {
    if value == 0 || !value.is_power_of_two() {
        Err(ModelError::NotPowerOfTwo { what, value })
    } else {
        Ok(value.trailing_zeros())
    }
}

/// The specification model `M(v(n))`: the machine a network-oblivious algorithm
/// is written for. Its only parameter is the number of *virtual processors*,
/// chosen by the algorithm designer as a function of the input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecModel {
    /// Number of virtual processors `v(n)` (a power of two).
    pub v: usize,
}

impl SpecModel {
    /// Creates a specification model with `v` virtual processors.
    pub fn new(v: usize) -> Result<Self, ModelError> {
        require_pow2("v", v)?;
        Ok(SpecModel { v })
    }

    /// `log2 v`: the number of distinct superstep labels `0 ≤ i < log v`.
    #[inline]
    pub fn log_v(&self) -> u32 {
        log2_exact(self.v)
    }

    /// Checks that `label` is an admissible superstep label for this machine.
    pub fn check_label(&self, label: u32) -> Result<(), ModelError> {
        // For v = 2 the paper's convention log v = max(1, log2 v) = 1 admits label 0.
        let log_v = self.log_v().max(1);
        if label >= log_v {
            Err(ModelError::BadLabel { label, log_v })
        } else {
            Ok(())
        }
    }
}

/// The evaluation model `M(p, σ)`: `p` processors with a fixed
/// latency-plus-synchronization cost `σ` per superstep. Coincides with BSP at
/// `g = 1`, `ℓ = σ` (Section 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalModel {
    /// Number of processors (a power of two).
    pub p: usize,
    /// Latency/synchronization cost charged once per superstep (`σ ≥ 0`).
    pub sigma: f64,
}

impl EvalModel {
    /// Creates an evaluation model `M(p, σ)`.
    pub fn new(p: usize, sigma: f64) -> Result<Self, ModelError> {
        require_pow2("p", p)?;
        if sigma < 0.0 || !sigma.is_finite() {
            return Err(ModelError::BadParameter {
                what: "sigma",
                reason: "must be finite and >= 0",
            });
        }
        Ok(EvalModel { p, sigma })
    }

    /// `log2 p`.
    #[inline]
    pub fn log_p(&self) -> u32 {
        log2_exact(self.p)
    }
}

/// The execution machine model D-BSP(p, **g**, **ℓ**).
///
/// Processors are partitioned into nested *i-clusters* (the `p/2^i` processors
/// sharing the `i` most significant index bits). An `i`-superstep of degree `h`
/// costs `h·g_i + ℓ_i` time units: `g_i` is an inverse bandwidth and `ℓ_i` a
/// latency-plus-synchronization cost for communication confined to i-clusters.
#[derive(Debug, Clone, PartialEq)]
pub struct DbspMachine {
    /// Number of processors (a power of two).
    pub p: usize,
    /// Inverse-bandwidth vector `g = (g_0, …, g_{log p − 1})`, time per message.
    pub g: Vec<f64>,
    /// Latency vector `ℓ = (ℓ_0, …, ℓ_{log p − 1})`, time per superstep.
    pub ell: Vec<f64>,
    /// Optional human-readable name (used by presets and theorem reports).
    pub name: String,
}

impl DbspMachine {
    /// Creates a D-BSP machine, validating vector lengths and non-negativity.
    pub fn new(p: usize, g: Vec<f64>, ell: Vec<f64>) -> Result<Self, ModelError> {
        let log_p = require_pow2("p", p)?.max(1) as usize;
        if g.len() != log_p {
            return Err(ModelError::BadVectorLength { what: "g", expected: log_p, got: g.len() });
        }
        if ell.len() != log_p {
            return Err(ModelError::BadVectorLength {
                what: "ell",
                expected: log_p,
                got: ell.len(),
            });
        }
        for (what, v) in [("g", &g), ("ell", &ell)] {
            if v.iter().any(|x| !x.is_finite() || *x < 0.0) {
                return Err(ModelError::BadParameter { what, reason: "entries must be finite and >= 0" });
            }
        }
        if g.contains(&0.0) {
            // ℓ_i/g_i ratios appear throughout Thm 3.4; keep them well-defined.
            return Err(ModelError::BadParameter { what: "g", reason: "entries must be > 0" });
        }
        Ok(DbspMachine { p, g, ell, name: String::new() })
    }

    /// Attaches a preset name (builder style).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// `log2 p`.
    #[inline]
    pub fn log_p(&self) -> u32 {
        log2_exact(self.p)
    }

    /// The ratio vector `ℓ_i / g_i` (a capacity measure; see Thm. 3.4).
    pub fn ell_over_g(&self) -> Vec<f64> {
        self.g.iter().zip(&self.ell).map(|(g, l)| l / g).collect()
    }

    /// The monotonicity assumption of Theorem 3.4: both `g_i` and `ℓ_i/g_i`
    /// must be non-increasing in `i` (larger submachines communicate more
    /// expensively and have more capacity).
    pub fn is_monotone(&self) -> bool {
        let ratios = self.ell_over_g();
        self.g.windows(2).all(|w| w[0] >= w[1] - 1e-12)
            && ratios.windows(2).all(|w| w[0] >= w[1] - 1e-12)
    }

    /// Folds this machine description onto the top `2^j`-processor view:
    /// the machine D-BSP(2^j, (g_0..g_{j−1}), (ℓ_0..ℓ_{j−1})).
    ///
    /// This is the machine "seen" by an algorithm using only supersteps of
    /// label `< j`.
    pub fn prefix(&self, p: usize) -> Result<DbspMachine, ModelError> {
        let j = require_pow2("p", p)?;
        if p > self.p {
            return Err(ModelError::BadFold { p, v: self.p });
        }
        let j = (j.max(1)) as usize;
        Ok(DbspMachine {
            p,
            g: self.g[..j].to_vec(),
            ell: self.ell[..j].to_vec(),
            name: format!("{}[..{}]", self.name, p),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_log_is_clamped_at_one() {
        assert_eq!(paper_log2(1.0), 1.0);
        assert_eq!(paper_log2(2.0), 1.0);
        assert_eq!(paper_log2(8.0), 3.0);
        assert!((paper_log2(1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spec_model_validates_power_of_two() {
        assert!(SpecModel::new(8).is_ok());
        assert_eq!(
            SpecModel::new(12),
            Err(ModelError::NotPowerOfTwo { what: "v", value: 12 })
        );
        assert!(SpecModel::new(0).is_err());
    }

    #[test]
    fn labels_are_bounded_by_log_v() {
        let m = SpecModel::new(8).unwrap();
        assert!(m.check_label(0).is_ok());
        assert!(m.check_label(2).is_ok());
        assert!(m.check_label(3).is_err());
        // v = 2: only label 0 is admissible.
        let m2 = SpecModel::new(2).unwrap();
        assert!(m2.check_label(0).is_ok());
        assert!(m2.check_label(1).is_err());
    }

    #[test]
    fn eval_model_rejects_negative_sigma() {
        assert!(EvalModel::new(4, 0.0).is_ok());
        assert!(EvalModel::new(4, -1.0).is_err());
        assert!(EvalModel::new(4, f64::NAN).is_err());
    }

    #[test]
    fn dbsp_validates_vector_lengths() {
        assert!(DbspMachine::new(8, vec![2.0, 1.5, 1.0], vec![9.0, 4.0, 1.0]).is_ok());
        assert!(DbspMachine::new(8, vec![1.0; 2], vec![1.0; 3]).is_err());
        assert!(DbspMachine::new(8, vec![1.0; 3], vec![1.0; 2]).is_err());
        // p = 2 needs exactly one entry.
        assert!(DbspMachine::new(2, vec![1.0], vec![0.5]).is_ok());
    }

    #[test]
    fn dbsp_monotonicity() {
        let m = DbspMachine::new(8, vec![4.0, 2.0, 1.0], vec![16.0, 4.0, 1.0]).unwrap();
        assert!(m.is_monotone()); // ratios 4, 2, 1
        let m = DbspMachine::new(8, vec![1.0, 2.0, 1.0], vec![1.0; 3]).unwrap();
        assert!(!m.is_monotone()); // g increases
        let m = DbspMachine::new(8, vec![1.0, 1.0, 1.0], vec![1.0, 4.0, 1.0]).unwrap();
        assert!(!m.is_monotone()); // ℓ/g increases then decreases
    }

    #[test]
    fn dbsp_prefix_takes_leading_levels() {
        let m = DbspMachine::new(8, vec![4.0, 2.0, 1.0], vec![16.0, 4.0, 1.0]).unwrap();
        let m2 = m.prefix(4).unwrap();
        assert_eq!(m2.p, 4);
        assert_eq!(m2.g, vec![4.0, 2.0]);
        assert_eq!(m2.ell, vec![16.0, 4.0]);
        assert!(m.prefix(16).is_err());
    }

    #[test]
    fn dbsp_rejects_zero_bandwidth() {
        assert!(DbspMachine::new(4, vec![1.0, 0.0], vec![1.0, 1.0]).is_err());
    }
}
