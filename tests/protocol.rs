//! Integration: the Section-5 ascend–descend protocol applied to real
//! algorithm executions.

use network_oblivious::algos::broadcast::ObliviousBroadcast;
use network_oblivious::algos::sort::ColumnSort;
use network_oblivious::core::theorem::thm_5_3_factor;
use network_oblivious::core::{fullness, machines};
use network_oblivious::machine::execute_with_log;
use network_oblivious::machine::protocol::ascend_descend;

#[test]
fn protocol_preserves_label_structure() {
    // Rewritten supersteps of an i-superstep use labels ≥ i (the protocol
    // works inside the original cluster) and < log p.
    let n = 256usize;
    let keys: Vec<u64> = (0..n as u64).map(|k| k ^ 0x5a).collect();
    let (_, trace, log) = execute_with_log(&ColumnSort::<u64>::default(), n, &keys[..]).unwrap();
    for p in [4usize, 16, 64] {
        let rewritten = ascend_descend(&trace, &log, p);
        let log_p = p.trailing_zeros();
        for s in &rewritten.steps {
            assert!(s.label < log_p);
        }
        // Every original communicating superstep expands to ≥ its share.
        assert!(rewritten.superstep_count() >= trace.fold(p).s.iter().sum::<u64>() as usize);
    }
}

#[test]
fn protocol_cost_stays_within_thm_5_3() {
    // For a (γ, p)-full algorithm the rewritten execution is within
    // O((1 + 1/γ)·log²p̄) of the original optimality class. We check the
    // measured blow-up of H against that envelope (constant 8).
    let n = 256usize;
    let keys: Vec<u64> = (0..n as u64).map(|k| k.wrapping_mul(0x2545_f491)).collect();
    let (_, trace, log) = execute_with_log(&ColumnSort::<u64>::default(), n, &keys[..]).unwrap();
    let p = 16usize;
    let gamma = fullness::gamma_max(&trace, p).gamma.min(1.0);
    assert!(gamma > 0.0);
    let rewritten = ascend_descend(&trace, &log, p);
    for sigma in [0.0, 4.0] {
        let h_orig = trace.comm_complexity(p, sigma);
        let h_new = rewritten.comm_complexity(p, sigma);
        let lp = (p as f64).log2();
        let envelope = 8.0 * (1.0 + 1.0 / gamma) * lp * lp;
        assert!(
            h_new <= envelope * h_orig,
            "sigma={sigma}: blow-up {} exceeds Thm 5.3 envelope {envelope}",
            h_new / h_orig
        );
    }
    // And the factor function itself behaves.
    assert!(thm_5_3_factor(1.0, gamma, p) > 0.0);
}

#[test]
fn protocol_helps_unbalanced_patterns_on_hierarchical_machines() {
    // The broadcast tree is balanced (degree 1) — ascend-descend should not
    // catastrophically hurt it even on the array.
    let n = 1024usize;
    let (_, trace, log) = execute_with_log(&ObliviousBroadcast, n, &9u64).unwrap();
    let p = 32usize;
    let rewritten = ascend_descend(&trace, &log, p);
    let m = machines::linear_array(p);
    let overhead = rewritten.comm_time(&m) / trace.comm_time(&m);
    assert!(overhead < 30.0, "overhead {overhead}");
}
