//! 1D heat diffusion with the diamond-DAG stencil algorithm (Section 4.4.1):
//! a hot spot relaxing over an insulated rod, computed obliviously, compared
//! against naive time-stepping on latency-bound machines.
//!
//! Run with: `cargo run --example heat_diffusion`

use network_oblivious::algos::stencil::{DiamondStencil, HeatOp, NaiveStencil, StencilOp};
use network_oblivious::core::machines;
use network_oblivious::machine::{execute, RunOptions};

fn main() {
    let n = 256usize;
    // A hot spot in the middle of a cold rod.
    let input: Vec<f64> =
        (0..n).map(|x| if (120..136).contains(&x) { 100.0 } else { 0.0 }).collect();

    let (heat, t_diamond) =
        execute(&DiamondStencil::<HeatOp>::default(), n, &input[..], &RunOptions::default())
            .unwrap();
    let (heat_naive, t_naive) =
        execute(&NaiveStencil::<HeatOp>::default(), n, &input[..], &RunOptions::default()).unwrap();

    // Same DAG, same physics.
    for (a, b) in heat.iter().zip(&heat_naive) {
        assert!((a - b).abs() < 1e-9);
    }
    let reference = network_oblivious::algos::stencil::stencil_reference::<HeatOp>(&input);
    for (a, b) in heat.iter().zip(&reference) {
        assert!((a - b).abs() < 1e-9);
    }

    println!("temperature profile after {n} steps (ASCII, every 8th cell):");
    let max = heat.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    for x in (0..n).step_by(8) {
        let bars = (heat[x] / max * 40.0) as usize;
        println!("{x:>4} | {}{:.2}", "#".repeat(bars), heat[x]);
    }

    println!("\nwho wins where (Eq. 2 on machine presets, p = 8):");
    println!("{:<24} {:>12} {:>12} {:>8}", "machine", "D_diamond", "D_naive", "naive/diamond");
    for m in machines::standard_suite(8) {
        let dd = t_diamond.comm_time(&m);
        let dn = t_naive.comm_time(&m);
        println!("{:<24} {:>12.0} {:>12.0} {:>8.2}", m.name, dd, dn, dn / dd);
    }
    println!("\nnaive wins on bandwidth-bound machines; the diamond decomposition");
    println!("wins when per-superstep latency dominates (e.g. the linear array).");
    let _ = HeatOp::apply(None, Some(&1.0), None);
}
