//! Failure-injection tests: the engine must reject model violations loudly
//! rather than mis-account them.

use nob_core::ModelError;
use nob_machine::reference::{run_folded_reference, run_reference};
use nob_machine::{run, Program, RunOptions};

#[test]
fn message_outside_cluster_is_rejected_with_the_offending_edge() {
    let mut p: Program<(), u8> = Program::new(16, 16);
    p.step(2, "escape", |_, ctx, _, out| {
        if ctx.vp == 5 {
            out.send(12, 1); // 5 and 12 differ in the top two bits
        }
    });
    match run(&p, vec![(); 16], &RunOptions::default()) {
        Err(ModelError::ClusterViolation { label: 2, src: 5, dst: 12 }) => {}
        Err(other) => panic!("expected cluster violation, got {other:?}"),
        Ok(_) => panic!("expected cluster violation, got success"),
    }
}

/// A dynamic send past the machine is the same structured error on every
/// engine, at every width, with validation on or off: every engine indexes
/// its receivers by the destination, so the range check is not optional
/// the way the cluster check is.
#[test]
fn out_of_range_destination_is_rejected() {
    let v = 16;
    let mut p: Program<(), u8> = Program::new(v, v);
    p.step(0, "overflow", |_, ctx, _, out| {
        if ctx.vp == 0 {
            out.send(32, 1);
        }
    });
    let want = ModelError::BadParameter {
        what: "dst",
        reason: "message destination out of machine range",
    };
    for validate in [true, false] {
        for workers in [1usize, 2, 4] {
            let opts = RunOptions { workers: Some(workers), validate, ..Default::default() };
            let what = format!("width {workers}, validate {validate}");
            assert_eq!(run(&p, vec![(); v], &opts).err(), Some(want.clone()), "run, {what}");
        }
        let opts = RunOptions { validate, ..Default::default() };
        let reference = run_reference(&p, vec![(); v], &opts).err();
        assert_eq!(reference, Some(want.clone()), "run_reference, validate {validate}");
        let folded = run_folded_reference(&p, vec![(); v], 4, &opts).err();
        assert_eq!(folded, Some(want.clone()), "run_folded_reference, validate {validate}");
    }
}

/// The executed folding checks the cluster constraint of every superstep,
/// the ones it does not record (label ≥ log p) included.
#[test]
fn folded_execution_validates_too() {
    let mut p: Program<(), u8> = Program::new(16, 16);
    p.step(3, "escape", |_, ctx, _, out| {
        if ctx.vp == 0 {
            out.send(15, 1);
        }
    });
    let err = run_folded_reference(&p, vec![(); 16], 4, &RunOptions::default()).err();
    assert_eq!(err, Some(ModelError::ClusterViolation { label: 3, src: 0, dst: 15 }));
}

#[test]
fn bad_fold_targets_are_rejected() {
    let mut p: Program<u8, u8> = Program::new(8, 8);
    p.step(0, "noop", |_, _, _, _| {});
    for bad_p in [0usize, 3, 16] {
        match run_folded_reference(&p, vec![0; 8], bad_p, &RunOptions::default()) {
            Err(ModelError::BadFold { .. }) => {}
            other => panic!("p = {bad_p}: expected BadFold, got {:?}", other.is_ok()),
        }
    }
}

/// A state vector of the wrong length is a structured error on every entry
/// point and at every width — the same one a served job gets — never a
/// panic on the run path.
#[test]
fn wrong_state_count_is_a_structured_error() {
    let mut p: Program<u8, u8> = Program::new(8, 8);
    p.step(0, "noop", |_, _, _, _| {});
    let want = ModelError::BadVectorLength { what: "states", expected: 8, got: 7 };
    for w in [1usize, 2] {
        let opts = RunOptions { workers: Some(w), ..Default::default() };
        assert_eq!(run(&p, vec![0; 7], &opts).err(), Some(want.clone()), "run, width {w}");
    }
    let opts = RunOptions::default();
    assert_eq!(run_reference(&p, vec![0; 7], &opts).err(), Some(want.clone()), "reference");
    let folded = run_folded_reference(&p, vec![0; 7], 4, &opts).err();
    assert_eq!(folded, Some(want.clone()), "reference folding");
    assert_eq!(p.capture_plans(vec![0; 7]).err(), Some(want));
    assert_eq!(p.planned_steps(), 0, "a refused capture adds no plan");
}

#[test]
fn self_messages_are_internal_at_every_fold() {
    // A VP sending to itself communicates with no one: degrees stay zero.
    let mut p: Program<u8, u8> = Program::new(8, 8);
    p.step(0, "selfie", |_, ctx, _, out| out.send(ctx.vp, 9));
    let res = run(&p, vec![0; 8], &RunOptions::default()).unwrap();
    for j in 1..=3 {
        assert_eq!(res.trace.steps[0].h(j), 0, "self-messages must fold away");
    }
    assert_eq!(res.trace.steps[0].total_msgs, 8);
}

#[test]
fn validation_off_really_skips_the_checks() {
    let mut p: Program<(), u8> = Program::new(8, 8);
    p.step(2, "escape", |_, ctx, _, out| {
        if ctx.vp == 0 {
            out.send(7, 1);
        }
    });
    let opts = RunOptions { validate: false, ..Default::default() };
    // Runs to completion; the metric pipeline still records the message.
    let res = run(&p, vec![(); 8], &opts).unwrap();
    assert_eq!(res.trace.steps[0].total_msgs, 1);
}

/// A body that panics mid-VP on the planned path is attributed to its VP —
/// serial and sharded, fused and unfused, whether the step's kernel inlines
/// a declared body or runs a captured one boxed. The planned path runs a
/// chunk over a copy of the engine's direct writer, so this holds only if
/// the copy goes back before the engine asks which VP unwound.
#[test]
fn a_panic_on_the_planned_path_names_its_vp() {
    use nob_machine::Xor;
    let v = 64usize;
    // State: whether this VP panics. Every VP sends first, so the writer is
    // mid-VP when VP 37 unwinds.
    let give_up = |st: &bool, ctx: &nob_machine::Ctx| {
        if *st {
            panic!("vp {} gave up", ctx.vp);
        }
    };
    let route = Xor(1);
    let mut declared: Program<bool, u8> = Program::new(v, v);
    declared.step_oblivious(0, "warm-up", 1, route, |_, _, _, out| out.send(1));
    declared.step_oblivious(0, "boom", 1, route, move |st, ctx, _, out| {
        out.send(7);
        give_up(st, ctx);
    });
    let mut captured: Program<bool, u8> = Program::new(v, v);
    captured.step(0, "boom", move |st, ctx, _, out| {
        out.send(ctx.vp ^ 1, 7);
        give_up(st, ctx);
    });
    assert_eq!(captured.capture_plans(vec![false; v]).unwrap(), 1);

    let mut states = vec![false; v];
    states[37] = true;
    let want = ModelError::VpPanic { step: "boom", vp: 37, payload: "vp 37 gave up".into() };
    for (what, prog) in [("declared", &declared), ("captured", &captured)] {
        assert_eq!(prog.planned_steps(), prog.steps().len(), "{what}: every step planned");
        for w in [1usize, 2] {
            for fuse in [true, false] {
                let opts = RunOptions { workers: Some(w), fuse, ..Default::default() };
                let got = run(prog, states.clone(), &opts).err();
                assert_eq!(got, Some(want.clone()), "{what}, width {w}, fuse {fuse}");
            }
        }
    }
}
