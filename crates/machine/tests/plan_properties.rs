//! Property tests of the communication-plan layer: for *arbitrary* oblivious
//! programs, executing from the compiled [`StepPlan`]s (analytic metrics,
//! compile-proven cluster constraint, direct-write scatter) must be
//! **bit-for-bit indistinguishable** from dynamic execution — states, trace
//! and raw message log, at full granularity and every folding, on the serial
//! and the sharded path — and a mis-declared route must be rejected under
//! validation instead of silently corrupting metrics.

use nob_machine::{run, run_folded, Ctx, Program, Route, RunOptions};
use proptest::prelude::*;

/// Splitmix-style hash shared by routes and closures (deterministic per
/// (seed, vp, k), so declaration and emission agree by construction).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The declared slot of VP `vp` at index `k` for a step descriptor:
/// `fanout` seed-derived in-cluster payloads, then one optional dummy.
fn slot(v: usize, label: u32, seed: u64, fanout: u8, vp: usize, k: usize) -> Route {
    let cluster = v >> label;
    let base = vp - vp % cluster;
    if k < fanout as usize {
        let dst = base + (mix(seed ^ (vp as u64) ^ (k as u64) << 32) as usize) % cluster;
        Route::Data(dst)
    } else if k == fanout as usize && mix(seed ^ vp as u64).is_multiple_of(3) {
        Route::Dummy(base + (mix(seed) as usize) % cluster)
    } else {
        Route::Skip
    }
}

/// Builds the program twice from the same descriptors: once with plans
/// declared (`oblivious = true`), once purely dynamic. Identical SPMD
/// semantics by construction.
fn build_program(v: usize, steps: &[(u32, u64, u8)], oblivious: bool) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for &(raw_label, seed, fanout) in steps {
        let label = raw_label % log_v.max(1);
        let body = move |st: &mut u64,
                         ctx: &Ctx,
                         inbox: &mut nob_machine::Inbox<'_, u64>,
                         out: &mut nob_machine::Outbox<u64>| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m);
            }
            for k in 0..=fanout as usize {
                match slot(ctx.v, label, seed, fanout, ctx.vp, k) {
                    Route::Data(dst) => out.send(dst, *st ^ mix(seed.wrapping_add(k as u64))),
                    Route::Dummy(dst) => out.send_dummy(dst),
                    Route::Skip | Route::End => {}
                }
            }
        };
        if oblivious {
            prog.step_oblivious(
                label,
                "random-planned",
                fanout as usize + 1,
                move |ctx, k| slot(ctx.v, label, seed, fanout, ctx.vp, k),
                body,
            );
        } else {
            prog.step(label, "random-dynamic", body);
        }
    }
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planned execution ≡ dynamic execution: same states, same trace, same
    /// message log — serial and sharded at p ∈ {2, 4, 8} (the direct
    /// cross-shard scatter vs the lane path), plans on and off, fusion on
    /// and off, validation on and off.
    #[test]
    fn planned_execution_is_bit_for_bit_dynamic((v, steps) in arb_steps()) {
        let planned = build_program(v, &steps, true);
        let dynamic = build_program(v, &steps, false);
        prop_assert_eq!(planned.planned_steps(), steps.len());
        let states: Vec<u64> = (0..v as u64).map(|x| x * 11 + 5).collect();
        let serial = RunOptions { workers: Some(1), ..RunOptions::with_log() };
        let want = run(&dynamic, states.clone(), &serial).unwrap();
        for (name, opts) in [
            ("serial", serial.clone()),
            ("plans-off", RunOptions { use_plans: false, ..serial.clone() }),
            ("no-validate", RunOptions { validate: false, ..serial.clone() }),
            ("fuse-off", RunOptions { fuse: false, ..serial.clone() }),
            ("sharded-2", RunOptions { workers: Some(2), ..RunOptions::with_log() }),
            ("sharded-4", RunOptions { workers: Some(4), ..RunOptions::with_log() }),
            ("sharded-8", RunOptions { workers: Some(8), ..RunOptions::with_log() }),
            (
                "sharded-4-no-validate",
                RunOptions { validate: false, workers: Some(4), ..RunOptions::with_log() },
            ),
            (
                "sharded-4-fuse-off",
                RunOptions { fuse: false, workers: Some(4), ..RunOptions::with_log() },
            ),
            (
                "sharded-8-plans-off",
                RunOptions { use_plans: false, workers: Some(8), ..RunOptions::with_log() },
            ),
        ] {
            let got = run(&planned, states.clone(), &opts).unwrap();
            prop_assert_eq!(&got.states, &want.states, "{} states", name);
            prop_assert_eq!(&got.trace, &want.trace, "{} trace", name);
            prop_assert_eq!(&got.message_log, &want.message_log, "{} log", name);
        }
    }

    /// Folded planned execution ≡ folded dynamic execution at every p and
    /// worker width (plan metrics collapse to granularity p analytically).
    #[test]
    fn folded_planned_execution_matches_dynamic((v, steps) in arb_steps()) {
        let planned = build_program(v, &steps, true);
        let dynamic = build_program(v, &steps, false);
        let states: Vec<u64> = (0..v as u64).collect();
        let mut p = 2usize;
        while p <= v {
            let serial = RunOptions { workers: Some(1), ..RunOptions::with_log() };
            let want = run_folded(&dynamic, states.clone(), p, &serial).unwrap();
            for w in [1usize, 2, 4] {
                let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
                let got = run_folded(&planned, states.clone(), p, &opts).unwrap();
                prop_assert_eq!(&got.states, &want.states, "folded states p={} w={}", p, w);
                prop_assert_eq!(&got.trace, &want.trace, "folded trace p={} w={}", p, w);
                prop_assert_eq!(&got.message_log, &want.message_log, "folded log p={} w={}", p, w);
            }
            p *= 2;
        }
    }

    /// A deliberately mis-declared route — the closure sends to a cyclic
    /// perturbation of every declared destination — is rejected under
    /// validation on every execution path (serial direct write, and the
    /// sharded direct cross-shard scatter at p ∈ {2, 4, 8}), never
    /// silently executed; the gang exits the reduced one-barrier protocol
    /// in lockstep with a [`nob_core::ModelError::PlanMismatch`], not a
    /// hang, a panic or memory corruption.
    #[test]
    fn misdeclared_routes_are_rejected_under_validation(
        (v, mut steps) in arb_steps(),
        step_seed in any::<u64>(),
    ) {
        // Ensure at least one payload message exists to mis-declare.
        steps[0].2 = steps[0].2.max(1);
        let (raw_label, _, fanout) = steps[0];
        let mut prog: Program<u64, u64> = Program::new(v, v);
        let log_v = prog.log_v();
        let label = raw_label % log_v.max(1);
        let seed = step_seed;
        prog.step_oblivious(
            label,
            "perturbed",
            fanout as usize + 1,
            move |ctx, k| slot(ctx.v, label, seed, fanout, ctx.vp, k),
            move |_st, ctx, _inbox, out| {
                let cluster = ctx.v >> label;
                let base = ctx.vp - ctx.vp % cluster;
                for k in 0..=fanout as usize {
                    match slot(ctx.v, label, seed, fanout, ctx.vp, k) {
                        // Shift every declared destination by one within the
                        // cluster: guaranteed different (cluster ≥ 2).
                        Route::Data(dst) => {
                            out.send(base + (dst - base + 1) % cluster, 7)
                        }
                        Route::Dummy(dst) => out.send_dummy(dst),
                        Route::Skip | Route::End => {}
                    }
                }
            },
        );
        let states: Vec<u64> = vec![0; v];
        for w in [1usize, 2, 4, 8] {
            let opts = RunOptions { workers: Some(w), ..Default::default() };
            let err = run(&prog, states.clone(), &opts)
                .expect_err("mis-declared route must be rejected under validation");
            prop_assert!(
                matches!(err, nob_core::ModelError::PlanMismatch { .. }),
                "unexpected error at {} workers: {:?}", w, err
            );
        }
    }

    /// A route whose closure escapes the declared shard cluster on the
    /// cross-shard direct-write path is caught by the writer's span check
    /// as a [`nob_core::ModelError::PlanMismatch`] — never a stale-window
    /// write — even with validation (and thus lockstep checking) off.
    #[test]
    fn cross_shard_escape_is_plan_mismatch_not_memory_corruption(
        lg in 2u32..6,
        validate in any::<bool>(),
    ) {
        let v = 1usize << lg;
        let mut prog: Program<u64, u64> = Program::new(v, v);
        // Declared: a shard-local self-send (label log_v - 1 keeps every
        // cluster inside one shard at w >= 2). Actual: VP 0 sends across
        // the machine's bisection — outside the declared cluster span.
        let label = lg - 1;
        prog.step_oblivious(
            label,
            "escapee",
            1,
            |ctx, _| Route::Data(ctx.vp),
            |_st, ctx, _inbox, out| {
                if ctx.vp == 0 {
                    out.send(ctx.v - 1, 13);
                } else {
                    out.send(ctx.vp, 13);
                }
            },
        );
        let states: Vec<u64> = vec![0; v];
        for w in [2usize, 4] {
            let opts = RunOptions { validate, workers: Some(w), ..Default::default() };
            let err = run(&prog, states.clone(), &opts)
                .expect_err("cluster-escaping send must be rejected");
            prop_assert!(
                matches!(err, nob_core::ModelError::PlanMismatch { .. }),
                "unexpected error at {} workers (validate = {}): {:?}", w, validate, err
            );
        }
    }
}
