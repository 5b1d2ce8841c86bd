//! D-BSP machine presets.
//!
//! The D-BSP parameter vectors describing concrete point-to-point topologies,
//! in the forms used by the D-BSP literature the paper builds on (de la
//! Torre–Kruskal; Bilardi–Pietracaprina–Pucci). An `i`-cluster of a
//! D-BSP(p, g, ℓ) holds `p/2^i` processors; for a network of diameter-type
//! exponent `1/d` (a d-dimensional array), a cluster of `q` processors routes
//! an h-relation in `Θ(h·q^{1/d} + q^{1/d})` time, giving
//! `g_i = Θ((p/2^i)^{1/d})` and `ℓ_i = Θ((p/2^i)^{1/d})`. For a hypercube,
//! `g_i = Θ(1)` and `ℓ_i = Θ(log(p/2^i))`.
//!
//! All presets satisfy the monotonicity assumptions of Thm. 3.4
//! (non-increasing `g_i` and `ℓ_i/g_i`); `nob-networks` grounds the mesh and
//! hypercube presets empirically.

use crate::model::DbspMachine;

/// Uniform (flat) BSP: `g_i = g`, `ℓ_i = ℓ` at every level. With `g = 1`,
/// `ℓ = σ` this is exactly the evaluation model `M(p, σ)`.
pub fn uniform(p: usize, g: f64, ell: f64) -> DbspMachine {
    let len = (p.trailing_zeros().max(1)) as usize;
    DbspMachine::new(p, vec![g; len], vec![ell; len])
        .expect("uniform preset parameters are valid")
        .named(format!("uniform(g={g},l={ell})"))
}

/// The evaluation model `M(p, σ)` seen as a D-BSP: `g_i = 1`, `ℓ_i = σ`.
pub fn evaluation(p: usize, sigma: f64) -> DbspMachine {
    uniform(p, 1.0, sigma).named(format!("M(p={p},sigma={sigma})"))
}

/// d-dimensional array/torus of `p` processors:
/// `g_i = max(1, (p/2^i)^{1/d})`, `ℓ_i = max(1, (p/2^i)^{1/d})·ell_scale`.
pub fn mesh(p: usize, d: u32, ell_scale: f64) -> DbspMachine {
    let len = (p.trailing_zeros().max(1)) as usize;
    let mut g = Vec::with_capacity(len);
    let mut ell = Vec::with_capacity(len);
    for i in 0..len {
        let cluster = (p >> i) as f64;
        let side = cluster.powf(1.0 / d as f64).max(1.0);
        g.push(side);
        ell.push(side * ell_scale);
    }
    DbspMachine::new(p, g, ell)
        .expect("mesh preset parameters are valid")
        .named(format!("mesh{d}d(p={p})"))
}

/// Linear array (1D mesh): `g_i = ℓ_i = p/2^i`.
pub fn linear_array(p: usize) -> DbspMachine {
    mesh(p, 1, 1.0).named(format!("array(p={p})"))
}

/// 2D mesh: `g_i = ℓ_i = √(p/2^i)`.
pub fn mesh2d(p: usize) -> DbspMachine {
    mesh(p, 2, 1.0).named(format!("mesh2d(p={p})"))
}

/// 3D mesh: `g_i = ℓ_i = (p/2^i)^{1/3}`.
pub fn mesh3d(p: usize) -> DbspMachine {
    mesh(p, 3, 1.0).named(format!("mesh3d(p={p})"))
}

/// Hypercube (multiport): constant bandwidth per level, logarithmic latency:
/// `g_i = 1`, `ℓ_i = max(1, log2(p/2^i))`.
pub fn hypercube(p: usize) -> DbspMachine {
    let len = (p.trailing_zeros().max(1)) as usize;
    let log_p = p.trailing_zeros() as usize;
    let g = vec![1.0; len];
    let ell = (0..len).map(|i| ((log_p - i) as f64).max(1.0)).collect();
    DbspMachine::new(p, g, ell)
        .expect("hypercube preset parameters are valid")
        .named(format!("hypercube(p={p})"))
}

/// Fat-tree with capacity exponent `a ∈ (0, 1]`: `g_i = (p/2^i)^a`,
/// `ℓ_i = g_i·log2(p/2^i)` (pin-limited area-universal interconnect).
pub fn fat_tree(p: usize, a: f64) -> DbspMachine {
    let len = (p.trailing_zeros().max(1)) as usize;
    let log_p = p.trailing_zeros() as usize;
    let mut g = Vec::with_capacity(len);
    let mut ell = Vec::with_capacity(len);
    for i in 0..len {
        let cluster = (p >> i) as f64;
        let gi = cluster.powf(a).max(1.0);
        g.push(gi);
        ell.push(gi * ((log_p - i) as f64).max(1.0));
    }
    DbspMachine::new(p, g, ell)
        .expect("fat-tree preset parameters are valid")
        .named(format!("fattree(p={p},a={a})"))
}

/// The standard suite of presets used by the optimality tests.
pub fn standard_suite(p: usize) -> Vec<DbspMachine> {
    vec![
        evaluation(p, 0.0),
        uniform(p, 1.0, 16.0),
        linear_array(p),
        mesh2d(p),
        mesh3d(p),
        hypercube(p),
        fat_tree(p, 0.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_monotone() {
        for p in [2usize, 8, 64, 1024] {
            for m in standard_suite(p) {
                assert!(m.is_monotone(), "{} not monotone: g={:?} l={:?}", m.name, m.g, m.ell);
                assert_eq!(m.p, p);
            }
        }
    }

    #[test]
    fn mesh2d_parameters() {
        let m = mesh2d(64);
        assert_eq!(m.g[0], 8.0); // √64
        assert!((m.g[3] - 8.0f64.sqrt()).abs() < 1e-9); // (64/8)^{1/2}
        assert_eq!(m.ell, m.g);
    }

    #[test]
    fn hypercube_latency_decreases_by_level() {
        let m = hypercube(256);
        assert_eq!(m.ell[0], 8.0);
        assert_eq!(m.ell[7], 1.0);
        assert!(m.g.iter().all(|&g| g == 1.0));
    }

    #[test]
    fn evaluation_preset_matches_eq1() {
        use crate::metrics::{CommTrace, SuperstepRecord};
        let mut t = CommTrace::new(8, 8);
        let msgs: Vec<(usize, usize)> = (0..4).map(|k| (k, k + 4)).collect();
        t.steps.push(SuperstepRecord::from_messages(0, 3, msgs));
        let sigma = 7.0;
        let m = evaluation(8, sigma);
        assert_eq!(t.comm_time(&m), t.comm_complexity(8, sigma));
    }
}
