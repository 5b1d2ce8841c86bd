//! Property tests of trace capture: for *arbitrary value-dependent* programs
//! — whose destinations are computed from the evolving state and therefore
//! cannot be declared obliviously — a captured run compiled into
//! [`StepPlan`]s and replayed must be **bit-for-bit indistinguishable** from
//! the live dynamic run: states, trace and raw message log, serial and
//! sharded at w ∈ {1, 2, 4, 8}, validation on and off, fused and unfused,
//! and under the reference engine's folding at every `p`. A capture that has gone stale (the program's
//! behavior changed after capture) must surface as a structured
//! [`nob_core::ModelError::PlanMismatch`], never as silent corruption.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nob_machine::reference::run_folded_reference;
use nob_machine::{run, Program, RunOptions};
use proptest::prelude::*;

/// Splitmix-style hash driving the value-dependent routes.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Builds a program whose every destination is derived from the *current
/// state* — deterministic for fixed initial states, but impossible to
/// declare as an oblivious route. Exactly the programs only capture can
/// bring onto the planned path.
fn build_dynamic(v: usize, steps: &[(u32, u64, u8)]) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for &(raw_label, seed, fanout) in steps {
        let label = raw_label % log_v.max(1);
        prog.step(label, "value-dependent", move |st, ctx, inbox, out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m);
            }
            let cluster = ctx.v >> label;
            let base = ctx.vp - ctx.vp % cluster;
            for k in 0..fanout as usize {
                let dst = base + (mix(*st ^ seed ^ (k as u64) << 32) as usize) % cluster;
                out.send(dst, st.wrapping_add(k as u64));
            }
            if mix(*st ^ seed).is_multiple_of(5) {
                out.send_dummy(base + (mix(seed) as usize) % cluster);
            }
        });
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

    /// Captured replay ≡ live dynamic execution: same states, same trace,
    /// same message log — serial and sharded at w ∈ {1, 2, 4, 8},
    /// validation on and off, fusion on and off.
    #[test]
    fn captured_replay_is_bit_for_bit_dynamic((v, steps) in arb_steps()) {
        let dynamic = build_dynamic(v, &steps);
        let mut captured = build_dynamic(v, &steps);
        let states: Vec<u64> = (0..v as u64).map(mix).collect();
        let added = captured.capture_plans(states.clone()).unwrap();
        prop_assert_eq!(added, captured.steps().len(), "every step was dynamic");
        prop_assert_eq!(captured.planned_steps(), captured.steps().len());

        let serial = RunOptions { workers: Some(1), ..RunOptions::with_log() };
        let want = run(&dynamic, states.clone(), &serial).unwrap();
        for (name, opts) in [
            ("serial", serial.clone()),
            ("serial-no-validate", RunOptions { validate: false, ..serial.clone() }),
            ("serial-fuse-off", RunOptions { fuse: false, ..serial.clone() }),
            ("sharded-2", RunOptions { workers: Some(2), ..RunOptions::with_log() }),
            ("sharded-4", RunOptions { workers: Some(4), ..RunOptions::with_log() }),
            ("sharded-8", RunOptions { workers: Some(8), ..RunOptions::with_log() }),
            (
                "sharded-4-no-validate",
                RunOptions { validate: false, workers: Some(4), ..RunOptions::with_log() },
            ),
            (
                "sharded-8-fuse-off",
                RunOptions { fuse: false, workers: Some(8), ..RunOptions::with_log() },
            ),
        ] {
            let got = run(&captured, states.clone(), &opts).unwrap();
            prop_assert_eq!(&got.states, &want.states, "{} states", name);
            prop_assert_eq!(&got.trace, &want.trace, "{} trace", name);
            prop_assert_eq!(&got.message_log, &want.message_log, "{} log", name);
        }
    }

    /// A captured program's executed folding — the reference engine's — ≡
    /// the run of the uncaptured program at every p: capture adds plans,
    /// never changes what a step sends, so the folding keeps the states and
    /// every fold of the trace.
    #[test]
    fn folded_captured_replay_matches_dynamic((v, steps) in arb_steps()) {
        let dynamic = build_dynamic(v, &steps);
        let mut captured = build_dynamic(v, &steps);
        let states: Vec<u64> = (0..v as u64).collect();
        captured.capture_plans(states.clone()).unwrap();
        prop_assert_eq!(captured.planned_steps(), captured.steps().len());

        let want = run(&dynamic, states.clone(), &RunOptions::default()).unwrap();
        let mut p = 2usize;
        while p <= v {
            let got =
                run_folded_reference(&captured, states.clone(), p, &RunOptions::default()).unwrap();
            prop_assert_eq!(&got.states, &want.states, "folded states p={}", p);
            let mut q = 2usize;
            while q <= p {
                prop_assert_eq!(got.trace.fold(q), want.trace.fold(q), "p={} q={}", p, q);
                q *= 2;
            }
            p *= 2;
        }
    }
}

/// A value-dependent step whose routing can be flipped after capture,
/// simulating a program whose behavior drifted out from under its cache.
/// The poisoned variant sends to the other neighbour: every destination
/// still receives exactly one payload, so only a comparison of each send
/// with the captured table can tell — which the replay makes, validated or
/// not.
fn poisonable(v: usize, flag: &Arc<AtomicBool>) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    let f = Arc::clone(flag);
    prog.step(0, "poisonable", move |st, ctx, inbox, out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
        let shift = if f.load(Ordering::Relaxed) { ctx.v - 1 } else { 1 };
        let dst = (ctx.vp + shift) % ctx.v;
        out.send(dst, *st | 1);
    });
    prog.step(log_v - 1, "consume", |st, _ctx, inbox, _out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
    });
    prog
}

/// A stale capture is a structured [`PlanMismatch`] on every execution
/// path — serial and sharded at every width — never corruption.
#[test]
fn stale_capture_is_rejected_as_plan_mismatch() {
    let v = 16;
    let flag = Arc::new(AtomicBool::new(false));
    let mut prog = poisonable(v, &flag);
    let states: Vec<u64> = (0..v as u64).collect();
    assert_eq!(prog.capture_plans(states.clone()).unwrap(), 2);

    // The program's behavior changes *after* capture: the send pattern no
    // longer matches what the captured plan promises.
    flag.store(true, Ordering::Relaxed);
    for w in [1usize, 2, 4, 8] {
        for validate in [true, false] {
            let opts = RunOptions { workers: Some(w), validate, ..Default::default() };
            let err = run(&prog, states.clone(), &opts)
                .expect_err("stale capture must be rejected, validated or not");
            assert!(
                matches!(err, nob_core::ModelError::PlanMismatch { .. }),
                "unexpected error at {w} workers (validate={validate}): {err:?}"
            );
        }
    }
}

/// The declared send totals the sharded planned path checks against are
/// memoised on the program per width. One program run at width 2, then 4,
/// then captured against drifted states (which plans its dynamic steps and
/// so changes the totals), must keep matching its own `use_plans = false`
/// execution bit for bit: a memo shared across widths, or one that survived
/// the capture, would surface as a `PlanMismatch`.
#[test]
fn send_totals_memo_tracks_width_and_capture() {
    use nob_machine::Xor;
    let v = 64;
    let mut prog = build_dynamic(v, &[(0, 7, 2), (1, 11, 1)]);
    prog.step_oblivious(0, "declared", 1, Xor(v / 2), |st, _, inbox, out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
        out.send(*st);
    });
    let check = |prog: &Program<u64, u64>, states: &[u64], what: &str| {
        for w in [2usize, 4] {
            let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
            let off = RunOptions { use_plans: false, ..opts.clone() };
            let want = run(prog, states.to_vec(), &off).unwrap();
            let got = run(prog, states.to_vec(), &opts)
                .unwrap_or_else(|e| panic!("{what}, {w} workers: {e:?}"));
            assert_eq!(got.states, want.states, "{what}: states at {w} workers");
            assert_eq!(got.trace, want.trace, "{what}: trace at {w} workers");
            assert_eq!(got.message_log, want.message_log, "{what}: log at {w} workers");
        }
    };
    let states: Vec<u64> = (0..v as u64).map(mix).collect();
    check(&prog, &states, "declared step only");
    let drifted: Vec<u64> = states.iter().map(|&s| mix(s ^ 0xd81f)).collect();
    assert_eq!(prog.capture_plans(drifted.clone()).unwrap(), 3);
    assert_eq!(prog.planned_steps(), prog.steps().len());
    check(&prog, &drifted, "after capture");
}

/// [`Program::repeat`] × capture. A repeated plan-less body may send
/// differently at each occurrence — here every destination is derived from
/// the evolving state — so capture gives each *schedule entry* the plan of
/// what that occurrence sent: replaying one occurrence's sequence for
/// another would fail the validated runs below with a `PlanMismatch`.
/// Entries that already carry a plan, shared or not, are left untouched.
#[test]
fn capture_plans_each_occurrence_of_a_repeated_step_on_its_own() {
    use nob_machine::Xor;
    let v = 32;
    // Entries 0–2 are value-dependent (the last only consumes).
    let mut prog = build_dynamic(v, &[(0, 3, 2), (1, 5, 1)]);
    prog.step_oblivious(0, "declared", 1, Xor(1), |st, _, inbox, out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
        out.send(*st);
    });
    prog.repeat(0..4);
    let plan_at = |prog: &Program<u64, u64>, t: usize| {
        let plan = prog.steps()[t].plan().unwrap_or_else(|| panic!("entry {t} has no plan"));
        std::ptr::from_ref(plan)
    };
    assert_eq!((prog.steps().len(), prog.planned_steps()), (8, 2));
    let declared = plan_at(&prog, 3);
    assert_eq!(declared, plan_at(&prog, 7), "repeat shares the declared plan");

    let states: Vec<u64> = (0..v as u64).map(mix).collect();
    let off = RunOptions { use_plans: false, workers: Some(1), ..RunOptions::with_log() };
    let want = run(&prog, states.clone(), &off).unwrap();
    let log = want.message_log.as_ref().unwrap();
    assert_ne!(log[0], log[4], "fixture: the two occurrences must send differently");

    assert_eq!(prog.capture_plans(states.clone()).unwrap(), 6, "one plan per plan-less entry");
    assert_eq!(prog.planned_steps(), 8);
    assert_eq!((plan_at(&prog, 3), plan_at(&prog, 7)), (declared, declared));
    for t in 0..3 {
        assert_ne!(plan_at(&prog, t), plan_at(&prog, t + 4), "entry {t} and its repeat");
    }
    for w in [1usize, 2, 4] {
        let opts = RunOptions { workers: Some(w), ..RunOptions::with_log() };
        let got = run(&prog, states.clone(), &opts).unwrap();
        assert_eq!(got.states, want.states, "states at {w} workers");
        assert_eq!(got.trace, want.trace, "trace at {w} workers");
        assert_eq!(got.message_log, want.message_log, "log at {w} workers");
    }
}
