//! Property tests of the superstep engine: the folding semantics of
//! Section 2 must hold for *arbitrary* static programs, not just the
//! Section-4 algorithms.
//!
//! We generate random static programs — random labelled supersteps whose
//! SPMD closures derive a cluster-respecting communication pattern and a
//! state update from a per-step seed — and assert that folded execution
//! agrees with full-granularity execution on both outputs and metrics, at
//! every folding.

use nob_machine::{run, run_folded, Program, RunOptions};
use proptest::prelude::*;

/// Splitmix-style hash used by the generated SPMD closures (deterministic,
/// shared by every VP).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Builds a random static program on M(v) from per-superstep (label, seed,
/// fanout) descriptors. Each VP sends `fanout` messages to seed-derived
/// destinations inside its label-cluster and folds everything it receives
/// into its state.
fn build_program(v: usize, steps: &[(u32, u64, u8)]) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for &(raw_label, seed, fanout) in steps {
        let label = raw_label % log_v.max(1);
        prog.step(label, "random", move |st, ctx, inbox, out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m);
            }
            let cluster = ctx.v >> label;
            let base = ctx.vp - ctx.vp % cluster;
            for k in 0..fanout {
                let dst = base + (mix(seed ^ (ctx.vp as u64) ^ (k as u64) << 32) as usize) % cluster;
                out.send(dst, *st ^ mix(seed.wrapping_add(k as u64)));
            }
            if mix(seed ^ ctx.vp as u64).is_multiple_of(3) {
                out.send_dummy(base + (mix(seed) as usize) % cluster);
            }
        });
    }
    // Terminal consume step (the model requires ending at a barrier anyway;
    // this makes the last messages visible in the final states).
    prog.step(log_v - 1, "consume", |st, _ctx, inbox, _out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
    });
    prog
}

fn arb_steps() -> impl Strategy<Value = (usize, Vec<(u32, u64, u8)>)> {
    (2u32..7).prop_flat_map(|log_v| {
        let v = 1usize << log_v;
        proptest::collection::vec((0u32..log_v, any::<u64>(), 0u8..4), 1..8)
            .prop_map(move |steps| (v, steps))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folded execution = full execution (outputs and all metrics), for
    /// arbitrary static programs and all foldings.
    #[test]
    fn folding_is_semantics_preserving((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).map(|x| x * 2 + 1).collect();
        let full = run(&prog, states.clone(), &RunOptions::default()).unwrap();
        let mut p = 2usize;
        while p <= v {
            let folded = run_folded(&prog, states.clone(), p, &RunOptions::default()).unwrap();
            prop_assert_eq!(&folded.states, &full.states, "states diverge at p = {}", p);
            let mut q = 2usize;
            while q <= p {
                prop_assert_eq!(folded.trace.fold(q), full.trace.fold(q));
                q *= 2;
            }
            p *= 2;
        }
    }

    /// Serial and parallel engine paths agree bit for bit.
    #[test]
    fn parallel_and_serial_execution_agree((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).collect();
        let serial =
            run(&prog, states.clone(), &RunOptions { parallel: false, ..Default::default() })
                .unwrap();
        let parallel =
            run(&prog, states, &RunOptions { parallel: true, ..Default::default() }).unwrap();
        prop_assert_eq!(serial.states, parallel.states);
        prop_assert_eq!(serial.trace, parallel.trace);
    }

    /// The message log exactly explains the per-superstep totals.
    #[test]
    fn message_log_matches_metrics((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).collect();
        let res = run(&prog, states, &RunOptions::with_log()).unwrap();
        let log = res.message_log.unwrap();
        prop_assert_eq!(log.len(), res.trace.steps.len());
        for (msgs, step) in log.iter().zip(&res.trace.steps) {
            prop_assert_eq!(msgs.len() as u64, step.total_msgs);
        }
    }

    /// The arena engine is bit-for-bit equivalent to the preserved legacy
    /// engine: same states, same trace, same message log — full granularity
    /// and every folding.
    #[test]
    fn arena_engine_matches_reference((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).map(|x| x * 3 + 1).collect();
        let arena = run(&prog, states.clone(), &RunOptions::with_log()).unwrap();
        let legacy =
            nob_machine::reference::run_reference(&prog, states.clone(), &RunOptions::with_log())
                .unwrap();
        prop_assert_eq!(&arena.states, &legacy.states);
        prop_assert_eq!(&arena.trace, &legacy.trace);
        prop_assert_eq!(&arena.message_log, &legacy.message_log);
        let mut p = 2usize;
        while p <= v {
            let a = run_folded(&prog, states.clone(), p, &RunOptions::default()).unwrap();
            let l = nob_machine::reference::run_folded_reference(
                &prog,
                states.clone(),
                p,
                &RunOptions::default(),
            )
            .unwrap();
            prop_assert_eq!(&a.states, &l.states, "folded states diverge at p = {}", p);
            prop_assert_eq!(&a.trace, &l.trace, "folded trace diverges at p = {}", p);
            p *= 2;
        }
    }

    /// The folded message log (satellite fix: `collect_messages` was silently
    /// ignored) aligns with the recorded supersteps and explains exactly the
    /// processor-external message totals.
    #[test]
    fn folded_message_log_matches_folded_metrics((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).collect();
        let mut p = 2usize;
        while p <= v {
            let res = run_folded(&prog, states.clone(), p, &RunOptions::with_log()).unwrap();
            let log = res.message_log.as_ref().expect("log requested");
            prop_assert_eq!(log.len(), res.trace.steps.len());
            for (msgs, step) in log.iter().zip(&res.trace.steps) {
                prop_assert_eq!(msgs.len() as u64, step.total_msgs);
                for &(ps, pd) in msgs {
                    prop_assert!((ps as usize) < p && (pd as usize) < p && ps != pd);
                }
            }
            p *= 2;
        }
    }

    /// The persistent sharded executor is bit-for-bit equivalent to the
    /// serial path on arbitrary static programs: same states, same trace,
    /// same message log — full granularity and every folding, at every
    /// shard width the machine admits.
    #[test]
    fn sharded_executor_matches_serial((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).map(|x| x * 5 + 3).collect();
        let serial = run(&prog, states.clone(), &RunOptions::with_log()).unwrap();
        for w in [2usize, 4] {
            let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
            let sh = run(&prog, states.clone(), &opts).unwrap();
            prop_assert_eq!(&sh.states, &serial.states, "states diverge at {} workers", w);
            prop_assert_eq!(&sh.trace, &serial.trace, "trace diverges at {} workers", w);
            prop_assert_eq!(&sh.message_log, &serial.message_log, "log diverges at {} workers", w);
            let mut p = 2usize;
            while p <= v {
                let sf = run_folded(
                    &prog,
                    states.clone(),
                    p,
                    &RunOptions { workers: Some(w), ..RunOptions::with_log() },
                )
                .unwrap();
                let lf = run_folded(&prog, states.clone(), p, &RunOptions::with_log()).unwrap();
                prop_assert_eq!(&sf.states, &lf.states, "folded states, p = {} w = {}", p, w);
                prop_assert_eq!(&sf.trace, &lf.trace, "folded trace, p = {} w = {}", p, w);
                prop_assert_eq!(&sf.message_log, &lf.message_log, "folded log, p = {} w = {}", p, w);
                p *= 2;
            }
        }
    }

    /// Validation-off sharded runs fall back to the all-pairs lane span, so
    /// even cluster-violating programs deliver exactly like the serial
    /// engine.
    #[test]
    fn sharded_executor_without_validation_matches_serial(seed in any::<u64>()) {
        let v = 16usize;
        let mut prog: Program<u64, u64> = Program::new(v, v);
        // A high-label superstep that ignores the cluster constraint: under
        // the label's peer span these destinations would be unreachable.
        prog.step(3, "rogue", move |st, ctx, inbox, out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
            let dst = (mix(seed ^ ctx.vp as u64) as usize) % ctx.v;
            out.send(dst, *st);
        });
        prog.step(3, "consume", |st, _ctx, inbox, _out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m);
            }
        });
        let states: Vec<u64> = (0..v as u64).collect();
        let base = RunOptions { validate: false, ..Default::default() };
        let serial = run(&prog, states.clone(), &base).unwrap();
        for w in [2usize, 4] {
            let opts = RunOptions { workers: Some(w), ..base.clone() };
            let sh = run(&prog, states.clone(), &opts).unwrap();
            prop_assert_eq!(&sh.states, &serial.states, "states diverge at {} workers", w);
            prop_assert_eq!(&sh.trace, &serial.trace, "trace diverges at {} workers", w);
        }
    }

    /// The ascend–descend rewrite of any logged execution delivers every
    /// message and uses only labels < log p.
    #[test]
    fn ascend_descend_is_well_formed((v, steps) in arb_steps()) {
        let prog = build_program(v, &steps);
        let states: Vec<u64> = (0..v as u64).collect();
        let res = run(&prog, states, &RunOptions::with_log()).unwrap();
        let log = res.message_log.unwrap();
        let mut p = 2usize;
        while p <= v {
            let rewritten = nob_machine::protocol::ascend_descend(&res.trace, &log, p);
            let log_p = p.trailing_zeros();
            for s in &rewritten.steps {
                prop_assert!(s.label < log_p);
            }
            p *= 4;
        }
    }
}
