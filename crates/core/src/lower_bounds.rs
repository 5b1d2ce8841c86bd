//! Communication-complexity lower bounds quoted by Section 4 of the paper.
//!
//! These are the Scquizzato–Silvestri (STACS'14) bounds the paper's Lemmas
//! 4.1, 4.4, 4.7 and 4.10 instantiate on `M(p, σ)`, plus the broadcast bound
//! proved in Theorem 4.15. They are exposed as closed-form functions of
//! `(n, p, σ)` so that tests can bound *optimality factors*
//! `ρ = H_measured / H_lower` — the quantity the paper's Θ(1)-optimality
//! claims bound.
//!
//! All bounds are Ω-bounds; the constants here are normalized to 1, so a
//! measured factor `ρ` is meaningful up to the (unknown) constant of the
//! original proof. What the reproduction checks is that `ρ` stays *bounded*
//! across the parameter ranges where the paper claims optimality, and how it
//! degrades outside them.

use crate::model::paper_log2;

/// Lemma 4.1: any semiring `n`-MM algorithm in class `C` on `M(p, σ)` has
/// `H = Ω(n/p^{2/3} + σ)`.
pub fn mm(n: usize, p: usize, sigma: f64) -> f64 {
    n as f64 / (p as f64).powf(2.0 / 3.0) + sigma
}

/// Section 4.1.1 (after Irony–Toledo–Tiskin): `n`-MM with `O(n/v)` memory per
/// processing element has `H = Ω(n/√p)` (plus the trivial `σ` term).
pub fn mm_space(n: usize, p: usize, sigma: f64) -> f64 {
    n as f64 / (p as f64).sqrt() + sigma
}

/// Lemma 4.4: `n`-FFT (no recomputation) has
/// `H = Ω((n·log n)/(p·log(n/p)) + σ)`.
pub fn fft(n: usize, p: usize, sigma: f64) -> f64 {
    let n_f = n as f64;
    n_f * paper_log2(n_f) / (p as f64 * paper_log2(n_f / p as f64)) + sigma
}

/// Lemma 4.7: comparison-based `n`-sort has the same form as FFT:
/// `H = Ω((n·log n)/(p·log(n/p)) + σ)`.
pub fn sort(n: usize, p: usize, sigma: f64) -> f64 {
    fft(n, p, sigma)
}

/// Lemma 4.10: the `(n, d)`-stencil has `H = Ω(n^d / p^{(d−1)/d} + σ)`.
pub fn stencil(n: usize, d: u32, p: usize, sigma: f64) -> f64 {
    let d_f = d as f64;
    (n as f64).powi(d as i32) / (p as f64).powf((d_f - 1.0) / d_f) + sigma
}

/// Theorem 4.15: `n`-broadcast on `M(p, σ)` has
/// `H = Ω(max{2, σ}·log_{max{2,σ}} p)`.
pub fn broadcast(p: usize, sigma: f64) -> f64 {
    let kappa = sigma.max(2.0);
    let log_p = paper_log2(p as f64);
    kappa * (log_p / kappa.log2().max(1.0))
}

/// The closed-form *upper* bounds proved in Section 4, for shape comparison
/// against measured complexities (constants normalized to 1).
pub mod upper {
    use crate::model::paper_log2;

    /// Theorem 4.2: `H_MM(n, p, σ) = O(n/p^{2/3} + σ·log p)`.
    pub fn mm(n: usize, p: usize, sigma: f64) -> f64 {
        n as f64 / (p as f64).powf(2.0 / 3.0) + sigma * paper_log2(p as f64)
    }

    /// Section 4.1.1: `H_MM-space(n, p, σ) = O(n/√p + σ·√p)`.
    pub fn mm_space(n: usize, p: usize, sigma: f64) -> f64 {
        let p_f = p as f64;
        n as f64 / p_f.sqrt() + sigma * p_f.sqrt()
    }

    /// Theorem 4.5: `H_FFT(n, p, σ) = O((n/p + σ)·log n/log(n/p))`.
    pub fn fft(n: usize, p: usize, sigma: f64) -> f64 {
        let n_f = n as f64;
        (n_f / p as f64 + sigma) * paper_log2(n_f) / paper_log2(n_f / p as f64)
    }

    /// Theorem 4.8: `H_sort(n, p, σ) = O((n/p + σ)·(log n/log(n/p))^{log_{3/2} 4})`.
    pub fn sort(n: usize, p: usize, sigma: f64) -> f64 {
        let n_f = n as f64;
        let e = 4.0f64.ln() / 1.5f64.ln();
        (n_f / p as f64 + sigma) * (paper_log2(n_f) / paper_log2(n_f / p as f64)).powf(e)
    }

    /// Theorem 4.11: `H_1-stencil(n, p, σ) = O(n·4^√(log n))` for σ = O(n/p).
    pub fn stencil1(n: usize, _p: usize, _sigma: f64) -> f64 {
        let n_f = n as f64;
        n_f * 4.0f64.powf(paper_log2(n_f).sqrt())
    }

    /// Theorem 4.13: `H_2-stencil(n, p, σ) = O((n²/√p)·8^√(log n))` for σ = O(n²/p).
    pub fn stencil2(n: usize, p: usize, _sigma: f64) -> f64 {
        let n_f = n as f64;
        n_f * n_f / (p as f64).sqrt() * 8.0f64.powf(paper_log2(n_f).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm_bound_shape() {
        // Doubling p by 8 shrinks the bandwidth term by 4.
        let a = mm(1 << 12, 8, 0.0);
        let b = mm(1 << 12, 64, 0.0);
        assert!((a / b - 4.0).abs() < 1e-9);
        // σ enters additively.
        assert_eq!(mm(64, 8, 5.0) - mm(64, 8, 0.0), 5.0);
    }

    #[test]
    fn fft_bound_degenerates_gracefully_at_p_eq_n() {
        // log(n/p) clamps at 1, so the bound stays finite.
        let b = fft(1024, 1024, 0.0);
        assert!(b.is_finite() && b > 0.0);
        // For p << n the ratio log n / log(n/p) ≈ 1: bound ≈ n/p.
        let b2 = fft(1 << 20, 2, 0.0);
        assert!(b2 < 1.2 * (1 << 19) as f64);
    }

    #[test]
    fn stencil_bound_by_dimension() {
        // d = 1: Ω(n); d = 2: Ω(n²/√p).
        assert_eq!(stencil(256, 1, 64, 0.0), 256.0);
        assert!((stencil(256, 2, 64, 0.0) - 256.0 * 256.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_bound_interpolates() {
        // σ ≤ 2: Θ(log p).
        assert_eq!(broadcast(1 << 10, 0.0), 2.0 * 10.0 / 1.0);
        // Large σ: Θ(σ·log_σ p) = Θ(σ·log p/log σ).
        let b = broadcast(1 << 16, 256.0);
        assert!((b - 256.0 * 16.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounds_dominate_lower_bounds() {
        for &n in &[1usize << 10, 1 << 14] {
            for &p in &[2usize, 16, 256] {
                for &s in &[0.0, 1.0, 32.0] {
                    assert!(upper::mm(n, p, s) + 1e-9 >= mm(n, p, s) - s * (paper_log2(p as f64) - 1.0));
                    assert!(upper::fft(n, p, s) + 1e-9 >= fft(n, p, s) - s);
                    assert!(upper::sort(n, p, s) + 1e-9 >= sort(n, p, s) - s);
                }
            }
        }
    }
}
