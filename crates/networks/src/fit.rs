//! Fitting D-BSP parameters from routed h-relations, and evaluating traces
//! against the simulated network (`tests/model_consistency.rs`).

use crate::router::route_h_relation;
use crate::topology::Topology;
use nob_core::metrics::CommTrace;
use nob_core::model::DbspMachine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The measured calibration of one topology.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The fitted machine (measured `g_i`, `ℓ_i` per cluster level).
    pub machine: DbspMachine,
    /// Raw `(level, h, cycles)` samples behind the fit.
    pub samples: Vec<(u32, u64, u64)>,
}

/// Generates an exact h-relation inside the cluster `[0, q)`: `h` random
/// permutations, so every node sends and receives exactly `h` messages.
fn random_h_relation(q: usize, h: u64, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut msgs = Vec::with_capacity(q * h as usize);
    for _ in 0..h {
        let mut perm: Vec<usize> = (0..q).collect();
        perm.shuffle(rng);
        for (s, &d) in perm.iter().enumerate() {
            msgs.push((s, d));
        }
    }
    msgs
}

/// Measures per-cluster-level `(g_i, ℓ_i)` by routing random h-relations
/// confined to the leading i-cluster and least-squares fitting
/// `T ≈ g·h + ℓ` over `h ∈ {1, 2, 4, 8}`.
pub fn fit_dbsp<T: Topology>(topo: &T, seed: u64) -> FitReport {
    let p = topo.p();
    let log_p = p.trailing_zeros().max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Vec::new();
    let mut ell = Vec::new();
    let mut samples = Vec::new();
    for i in 0..log_p {
        let q = p >> i;
        if q < 2 {
            g.push(1.0);
            ell.push(1.0);
            continue;
        }
        let hs = [1u64, 2, 4, 8];
        let mut pts = Vec::new();
        for &h in &hs {
            // Average over a few relations to stabilize the fit.
            let mut total = 0u64;
            let reps = 3;
            for _ in 0..reps {
                total += route_h_relation(topo, &random_h_relation(q, h, &mut rng));
            }
            let t = total / reps;
            samples.push((i, h, t));
            pts.push((h as f64, t as f64));
        }
        // Least squares T = g·h + ℓ.
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|(x, _)| x).sum();
        let sy: f64 = pts.iter().map(|(_, y)| y).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
        let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
        let intercept = (sy - slope * sx) / n;
        g.push(slope.max(0.01));
        ell.push(intercept.max(1.0));
    }
    // Enforce the monotone shape Thm 3.4 assumes (measurement noise can
    // produce tiny inversions at the innermost levels).
    for i in 1..g.len() {
        g[i] = g[i].min(g[i - 1]);
    }
    let mut ell_fixed = ell.clone();
    let mut prev_ratio = ell_fixed[0] / g[0];
    for i in 1..ell_fixed.len() {
        if ell_fixed[i] / g[i] > prev_ratio {
            ell_fixed[i] = g[i] * prev_ratio;
        }
        prev_ratio = ell_fixed[i] / g[i];
    }
    let machine = DbspMachine::new(p, g, ell_fixed)
        .expect("fitted parameters are valid")
        .named(format!("fitted-{}", topo.name()));
    FitReport { machine, samples }
}

/// Routes every superstep of a recorded message log (at VP granularity,
/// folded onto the topology's processors) and returns the total cycle count —
/// the "ground truth" the D-BSP prediction is compared against.
pub fn simulate_trace<T: Topology>(topo: &T, trace: &CommTrace, log: &[Vec<(u32, u32)>]) -> u64 {
    let p = topo.p();
    let log_v = trace.log_v;
    let log_p = p.trailing_zeros();
    assert!(p <= trace.v());
    let mut total = 0u64;
    for msgs in log {
        let folded: Vec<(usize, usize)> = msgs
            .iter()
            .map(|&(s, d)| ((s as usize) >> (log_v - log_p), (d as usize) >> (log_v - log_p)))
            .filter(|(s, d)| s != d)
            .collect();
        // A superstep costs its routing time plus one barrier sweep
        // (diameter-ish: we charge the fitted ℓ of the full machine via the
        // caller; here we count pure routing).
        total += route_h_relation(topo, &folded);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Hypercube, Mesh2D};

    #[test]
    fn mesh_bandwidth_scales_like_sqrt_cluster() {
        let m = Mesh2D::new(64);
        let fit = fit_dbsp(&m, 42);
        let g = &fit.machine.g;
        // g_0 (64-node cluster) should exceed g_4 (4-node cluster) by ~√16 = 4
        // (generously bracketed: store-and-forward constants are loose).
        let ratio = g[0] / g[4];
        assert!(ratio > 1.5 && ratio < 12.0, "g = {g:?}");
        assert!(fit.machine.is_monotone());
    }

    #[test]
    fn hypercube_bandwidth_is_flat() {
        let h = Hypercube::new(64);
        let fit = fit_dbsp(&h, 7);
        let g = &fit.machine.g;
        let ratio = g[0] / g[5].max(0.01);
        assert!(ratio < 4.0, "hypercube g should be near-flat: {g:?}");
    }

    #[test]
    fn fitted_machines_satisfy_thm_3_4_assumptions() {
        for p in [16usize, 64] {
            let m = Mesh2D::new(p);
            assert!(fit_dbsp(&m, 1).machine.is_monotone());
            let h = Hypercube::new(p);
            assert!(fit_dbsp(&h, 1).machine.is_monotone());
        }
    }
}
