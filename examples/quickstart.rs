//! Quickstart: the three-model workflow of the network-oblivious framework.
//!
//! 1. Write an algorithm for the *specification model* `M(v(n))` — no machine
//!    parameters, just labelled supersteps.
//! 2. Analyze it on the *evaluation model* `M(p, σ)` — communication
//!    complexity `H(n, p, σ)`.
//! 3. Run it on the *execution machine model* D-BSP(p, g, ℓ) — communication
//!    time `D(n, p, g, ℓ)` on concrete machine presets.
//!
//! Run with: `cargo run --example quickstart`

use network_oblivious::algos::primitives::{CombineFn, TreeScan};
use network_oblivious::core::machines;
use network_oblivious::machine::reference::run_folded_reference;
use network_oblivious::machine::{execute, NobAlgorithm, RunOptions};

fn add(a: &u64, b: &u64) -> u64 {
    a + b
}

fn main() {
    // --- 1. A network-oblivious algorithm: prefix sums on M(n) -----------
    let n = 1024usize;
    let input: Vec<u64> = (1..=n as u64).collect();
    let scan = TreeScan { op: add as CombineFn<u64> };

    let (prefix, trace) = execute(&scan, n, &input[..], &RunOptions::default()).unwrap();
    assert_eq!(prefix[n - 1], (n as u64) * (n as u64 + 1) / 2);
    println!("prefix sums over {n} virtual processors: last = {}", prefix[n - 1]);
    println!(
        "trace: {} supersteps, {} messages, max per-VP degree {}",
        trace.superstep_count(),
        trace.total_messages(),
        trace.max_degree()
    );

    // --- 2. Evaluate the SAME algorithm on M(p, σ) for many machines -----
    println!("\ncommunication complexity H(n, p, sigma) of the folding (Eq. 1):");
    for p in [4usize, 16, 64, 256] {
        for sigma in [0.0, 8.0] {
            println!("  H({n}, {p:>3}, {sigma:>3}) = {}", trace.comm_complexity(p, sigma));
        }
    }

    // --- 3. Execute on D-BSP machines (Eq. 2) ----------------------------
    println!("\ncommunication time D(n, p, g, l) on machine presets:");
    for m in machines::standard_suite(64) {
        println!("  {:24} D = {}", m.name, trace.comm_time(&m));
    }

    // --- Folding, executed: same outputs on 16 processors -----------------
    // The metrics above are views of the one run; the reference engine's
    // folding executes the 16-processor machine to check that view.
    let states = scan.init(n, &input[..]);
    let folded = run_folded_reference(&scan.build(n), states, 16, &RunOptions::default()).unwrap();
    assert_eq!(scan.extract(n, folded.states), prefix);
    assert_eq!(folded.trace.fold(16), trace.fold(16));
    println!("\nfolding onto p = 16 processors reproduces outputs and metrics exactly.");
}
