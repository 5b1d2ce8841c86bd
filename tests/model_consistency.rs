//! Integration: cross-crate model consistency on real algorithm traces.
//!
//! * Lemma 3.1 holds for every recorded trace (it is a theorem about the
//!   metric definitions);
//! * `H(n, p, σ)` coincides with `D` on the flat machine `g = 1, ℓ = σ`
//!   (the Section-2 identification of the evaluation model with BSP);
//! * the wiseness/fullness orderings of Section 5;
//! * the exact folded h-relations of each trace, which depend on `n` only;
//! * the network simulators deliver what the presets promise (shape-level),
//!   and D-BSP fitted on a network predicts that network's routing time.

use network_oblivious::algos::fft::RecursiveFft;
use network_oblivious::algos::mm::standard::RecursiveMm;
use network_oblivious::algos::mm::MmInput;
use network_oblivious::algos::semiring::{Matrix, WrapU64};
use network_oblivious::algos::sort::ColumnSort;
use network_oblivious::core::theorem::lemma_3_1_holds;
use network_oblivious::core::{fullness, machines, wiseness, CommTrace};
use network_oblivious::machine::{execute, execute_with_log, RunOptions};
use network_oblivious::networks::{
    fit_dbsp, simulate_trace, Hypercube, LinearArray, Mesh2D, Topology,
};

fn traces() -> Vec<(String, CommTrace)> {
    let mut out = Vec::new();
    let s = 8usize;
    let input = MmInput::new(
        Matrix::from_fn(s, |i, j| WrapU64((i * 17 + j) as u64)),
        Matrix::from_fn(s, |i, j| WrapU64((i + j * 13) as u64)),
    );
    let (_, t) =
        execute(&RecursiveMm::<WrapU64>::default(), 64, &input, &RunOptions::default()).unwrap();
    out.push(("mm".into(), t));
    let xs: Vec<_> = (0..256)
        .map(|t| network_oblivious::algos::fft::Complex::new(t as f64, -(t as f64)))
        .collect();
    let (_, t) = execute(&RecursiveFft::default(), 256, &xs[..], &RunOptions::default()).unwrap();
    out.push(("fft".into(), t));
    let keys: Vec<u64> = (0..128u64).rev().collect();
    let (_, t) =
        execute(&ColumnSort::<u64>::default(), 128, &keys[..], &RunOptions::default()).unwrap();
    out.push(("sort".into(), t));
    out
}

#[test]
fn lemma_3_1_holds_on_all_algorithm_traces() {
    for (name, t) in traces() {
        assert!(lemma_3_1_holds(&t, t.v()), "Lemma 3.1 violated by {name}");
    }
}

#[test]
fn evaluation_model_is_flat_dbsp_on_all_traces() {
    for (name, t) in traces() {
        for p in [2usize, 16, 64] {
            for sigma in [0.0, 3.5, 64.0] {
                let h = t.comm_complexity(p, sigma);
                let d = t.comm_time(&machines::evaluation(p, sigma));
                assert!((h - d).abs() < 1e-9, "{name}: H != D at p={p}, sigma={sigma}");
            }
        }
    }
}

#[test]
fn folded_h_relations_are_pinned() {
    // H(n, 2^j, 0) at every fold 2^j ≤ v, as integers, with each trace's
    // message and superstep totals. The programs are static, so a change to
    // any route, label or dummy of these algorithms moves a number here.
    let want: [(&str, &[u64], u64, usize); 3] = [
        ("mm", &[96, 88, 56, 56, 38, 22], 1232, 5),
        ("fft", &[384, 224, 120, 62, 80, 44, 48, 36], 5936, 23),
        ("sort", &[352, 208, 256, 256, 256, 256, 256], 1760, 13),
    ];
    for ((name, t), (want_name, h, messages, supersteps)) in traces().into_iter().zip(want) {
        assert_eq!(name, want_name);
        let folds: Vec<f64> = (1..=t.log_v).map(|j| t.comm_complexity(1 << j, 0.0)).collect();
        let h: Vec<f64> = h.iter().map(|&x| x as f64).collect();
        assert_eq!(folds, h, "{name}: H(n, 2^j, 0) for j = 1..=log v");
        assert_eq!(t.total_messages(), messages, "{name}: messages");
        assert_eq!(t.superstep_count(), supersteps, "{name}: supersteps");
    }
}

#[test]
fn wise_algorithms_are_full() {
    // Section 5: (Θ(1), p)-wiseness implies (Θ(1), p)-fullness when every
    // superstep communicates at least one message.
    for (name, t) in traces() {
        let p = t.v();
        let alpha = wiseness::alpha_max(&t, p).alpha;
        let gamma = fullness::gamma_max(&t, p).gamma;
        assert!(alpha > 0.05, "{name}: alpha = {alpha}");
        assert!(gamma >= alpha * 0.5, "{name}: gamma {gamma} << alpha {alpha}");
    }
}

#[test]
fn fitted_networks_match_preset_shapes() {
    // Mesh bandwidth decays by ~2 per level pair (√ of cluster size), the
    // linear array's by 2 per level; hypercube stays within a small band.
    for (name, fit, preset) in [
        ("mesh", fit_dbsp(&Mesh2D::new(64), 11), machines::mesh2d(64)),
        ("array", fit_dbsp(&LinearArray::new(64), 11), machines::linear_array(64)),
    ] {
        for i in 0..5 {
            let shape_fit = fit.machine.g[i] / fit.machine.g[i + 1].max(1e-9);
            let shape_preset = preset.g[i] / preset.g[i + 1];
            assert!(
                shape_fit / shape_preset < 3.0 && shape_preset / shape_fit < 3.0,
                "{name} level {i}: fitted decay {shape_fit} vs preset {shape_preset}"
            );
        }
    }
    let cube = Hypercube::new(64);
    let fit = fit_dbsp(&cube, 11);
    let spread = fit.machine.g[0] / fit.machine.g[5].max(1e-9);
    assert!(spread < 5.0, "hypercube g spread {spread}");
}

#[test]
fn fitted_dbsp_predicts_routing_time() {
    // The §1/§2 premise: D-BSP with (g_i, ℓ_i) fitted on a network predicts
    // how long that network takes to route an algorithm's traffic. The
    // n-FFT's predicted D against its message log routed packet by packet
    // (n = 1024): measured prediction/simulation 0.50–1.11 on both networks.
    fn ratio<T: Topology>(topo: &T, trace: &CommTrace, log: &[Vec<(u32, u32)>]) -> f64 {
        let predicted = trace.comm_time(&fit_dbsp(topo, 11).machine);
        predicted / simulate_trace(topo, trace, log) as f64
    }
    let n = 1024usize;
    let xs: Vec<_> = (0..n)
        .map(|t| network_oblivious::algos::fft::Complex::new(t as f64, -(t as f64)))
        .collect();
    let (_, trace, log) = execute_with_log(&RecursiveFft::new(false), n, &xs[..]).unwrap();
    for p in [16usize, 64] {
        for (name, r) in [
            ("mesh", ratio(&Mesh2D::new(p), &trace, &log)),
            ("hypercube", ratio(&Hypercube::new(p), &trace, &log)),
        ] {
            assert!((0.25..=4.0).contains(&r), "{name}, p={p}: predicted/simulated = {r}");
        }
    }
}
