//! Chaos suite: sweeps deterministic fault injection over every
//! instrumented site of both executors × failure flavor × shard width and
//! asserts the three robustness invariants:
//!
//! 1. **Structured failure** — every fault that fires surfaces as the
//!    matching `ModelError` (`FaultInjected` for error-flavor arms,
//!    `VpPanic` carrying the injected payload for panic-flavor arms);
//!    never a hang, an abort, or a propagated unwind. Arms addressing a
//!    site/step/shard combination the program never reaches must fire
//!    nothing and leave the run untouched (checked against the baseline).
//! 2. **Lockstep exit** — sharded runs are driven with a watchdog armed, so
//!    a worker left behind by a buggy abort protocol would surface as a
//!    `GangStall` (and fail the first invariant) instead of wedging the
//!    suite.
//! 3. **No contamination** — after every injected failure, a clean run in
//!    the same process is bit-for-bit identical (states, trace, message
//!    log) to a baseline computed before any fault ran.
//!
//! The driver program mixes all three protocols — dynamic (two-barrier
//! hand-over: flush, then gather and the coordinator's merge), planned
//! (one-barrier hand-over, including a dynamic-to-planned edge) and fused
//! (zero-barrier shard-local pipeline) — so every phase boundary is
//! reachable.

use nob_core::fault::{FaultKind, FaultPlan};
use nob_core::ModelError;
use nob_machine::plan::Xor;
use nob_machine::{run, Program, RunOptions, RunResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const V: usize = 16;

/// dynamic → planned → planned (each a one-barrier hand-over where its
/// payloads cross shards) → fused × 2
/// (zero-barrier: vp^1 at label 3 has payload locality 3, shard-local at
/// every swept width) → dynamic.
fn mixed_program() -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(V, V);
    let fold = |st: &mut u64, inbox: &mut nob_machine::Inbox<'_, u64>| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
    };
    prog.step(0, "dyn-a", move |st, ctx, inbox, out| {
        fold(st, inbox);
        out.send(ctx.vp ^ 8, *st + 1);
    });
    prog.step_oblivious(0, "pl-b", 1, Xor(8), move |st, _, inbox, out| {
        fold(st, inbox);
        out.send(*st + 2);
    });
    prog.step_oblivious(0, "pl-c", 1, Xor(4), move |st, _, inbox, out| {
        fold(st, inbox);
        out.send(*st + 3);
    });
    prog.step_oblivious(3, "fu-d", 1, Xor(1), move |st, _, inbox, out| {
        fold(st, inbox);
        out.send(*st + 4);
    });
    prog.step_oblivious(3, "fu-e", 1, Xor(1), move |st, _, inbox, out| {
        fold(st, inbox);
        out.send(*st + 5);
    });
    prog.step(0, "dyn-f", move |st, _, inbox, _| fold(st, inbox));
    prog
}

fn init_states() -> Vec<u64> {
    (0..V as u64).map(|x| x + 100).collect()
}

/// Options for width `w` (`1` = the serial path): message log on, watchdog
/// armed wide enough that only a genuinely lost worker could trip it.
fn opts(w: usize) -> RunOptions {
    RunOptions {
        workers: Some(w),
        collect_messages: true,
        stall_timeout: Some(Duration::from_secs(5)),
        ..Default::default()
    }
}

fn assert_clean(got: &RunResult<u64>, want: &RunResult<u64>, what: &str) {
    assert_eq!(got.states, want.states, "{what}: states contaminated");
    assert_eq!(got.trace, want.trace, "{what}: trace contaminated");
    assert_eq!(got.message_log, want.message_log, "{what}: log contaminated");
}

/// Drives one injected run and checks invariants 1 and 3.
fn drive(
    prog: &Program<u64, u64>,
    baseline: &RunResult<u64>,
    w: usize,
    site: &'static str,
    shard: usize,
    t: usize,
    kind: FaultKind,
) {
    let what = format!("site {site}, shard {shard}, step {t}, {kind:?}, width {w}");
    let plan = Arc::new(match kind {
        FaultKind::Error => FaultPlan::error_at(site, shard, t),
        FaultKind::Panic => FaultPlan::panic_at(site, shard, t),
    });
    let run_opts = RunOptions { faults: Some(Arc::clone(&plan)), ..opts(w) };
    let result = run(prog, init_states(), &run_opts);
    if plan.fired() > 0 {
        let err = result.err().unwrap_or_else(|| panic!("{what}: fired but run succeeded"));
        match kind {
            FaultKind::Error => assert!(
                matches!(err, ModelError::FaultInjected { site: s, .. } if s == site),
                "{what}: wrong error {err:?}"
            ),
            FaultKind::Panic => match &err {
                ModelError::VpPanic { payload, .. } => assert!(
                    payload.contains("injected panic"),
                    "{what}: foreign panic payload {payload:?}"
                ),
                other => panic!("{what}: wrong error {other:?}"),
            },
        }
    } else {
        // The program never reaches this (site, shard, step): the arm must
        // be inert and the run indistinguishable from a clean one.
        let res = result.unwrap_or_else(|e| panic!("{what}: unfired arm errored: {e:?}"));
        assert_clean(&res, baseline, &what);
    }
    // Invariant 3: the failure left no residue behind in this process.
    let clean = run(prog, init_states(), &opts(w)).expect("clean rerun failed");
    assert_clean(&clean, baseline, &what);
}

#[test]
fn injected_faults_surface_structured_and_leave_no_residue() {
    let prog = mixed_program();
    let steps = prog.steps().len();

    // Serial path (width 1). The mailbox edges sit outside the serial
    // `catch_unwind` phases, so only error-flavor arms address them there;
    // the two serial phase sites take both flavors.
    let baseline = run(&prog, init_states(), &opts(1)).expect("serial baseline");
    for t in 0..steps {
        for site in ["serial:planned", "serial:exec"] {
            for kind in [FaultKind::Error, FaultKind::Panic] {
                drive(&prog, &baseline, 1, site, 0, t, kind);
            }
        }
        for site in ["mailbox:bump_count", "mailbox:prepare_write"] {
            drive(&prog, &baseline, 1, site, 0, t, FaultKind::Error);
        }
    }

    // Sharded widths: every executor site, both flavors (each site's check
    // runs inside its phase's `catch_unwind`), first and last shard.
    const SHARD_SITES: [&str; 9] = [
        "shard:prepare",
        "shard:exec_planned",
        "shard:fused_exec",
        "shard:commit",
        "shard:flush",
        "shard:gather",
        "shard:merge",
        "mailbox:bump_count",
        "mailbox:prepare_write",
    ];
    for w in [2usize, 4, 8] {
        let baseline = run(&prog, init_states(), &opts(w)).expect("sharded baseline");
        assert_clean(&baseline, &run(&prog, init_states(), &opts(1)).unwrap(), "width parity");
        for t in 0..steps {
            for site in SHARD_SITES {
                for shard in [0, w - 1] {
                    for kind in [FaultKind::Error, FaultKind::Panic] {
                        drive(&prog, &baseline, w, site, shard, t, kind);
                    }
                }
            }
        }
    }
}

#[test]
fn every_instrumented_site_is_reachable() {
    // The sweep above tolerates unreachable (site, step) pairs; this pins
    // that each *site* fires somewhere in the driver program, so a renamed
    // or dropped failpoint cannot silently hollow out the suite.
    let prog = mixed_program();
    let reachable = |w: usize, site: &'static str, shards: usize| {
        (0..prog.steps().len()).any(|t| {
            (0..shards).any(|s| {
                let plan = Arc::new(FaultPlan::error_at(site, s, t));
                let o = RunOptions { faults: Some(Arc::clone(&plan)), ..opts(w) };
                let _ = run(&prog, init_states(), &o);
                plan.fired() > 0
            })
        })
    };
    for site in ["serial:planned", "serial:exec", "mailbox:bump_count", "mailbox:prepare_write"] {
        assert!(reachable(1, site, 1), "serial site {site} unreachable");
    }
    for site in [
        "shard:prepare",
        "shard:exec_planned",
        "shard:fused_exec",
        "shard:commit",
        "shard:flush",
        "shard:gather",
        "shard:merge",
        "mailbox:bump_count",
        "mailbox:prepare_write",
    ] {
        assert!(reachable(4, site, 4), "sharded site {site} unreachable");
    }
}

#[test]
fn every_telemetry_site_is_observed_in_an_armed_run() {
    use nob_core::telemetry::{Site, TelemetrySink};
    // The telemetry twin of the reachability check above: the span sites
    // share the failpoints' names, so naming a failpoint says nothing about
    // whether its span is still *recorded*. One sink armed over the driver
    // program sharded (prepare, exec, exec_planned, fused_exec, commit,
    // flush, gather, merge, barrier_wait) and serial (serial:planned,
    // serial:exec) must have observed every site, so a dropped `record`
    // call fails here with the site's name.
    let sink = Arc::new(TelemetrySink::for_workers(4));
    let prog = mixed_program();
    for w in [4usize, 1] {
        let armed = RunOptions { telemetry: Some(Arc::clone(&sink)), ..opts(w) };
        run(&prog, init_states(), &armed).expect("armed run");
    }
    let report = sink.run_report();
    assert_eq!(report.sites.len(), Site::COUNT, "the report lists every site");
    for site in Site::ALL {
        assert!(report.count(site) > 0, "site {} was never observed", site.name());
    }
}

#[test]
fn armed_telemetry_attributes_gang_stalls() {
    use nob_core::telemetry::TelemetrySink;
    // VP 5 (shard 1 of 2) outsleeps the watchdog inside its exec phase.
    // Disarmed, this surfaces as a bare `GangStall` (pinned by the shard
    // module's own test); armed, the error must *name* the lost worker and
    // the phase it was last seen entering — the whole point of threading
    // the entry stamps through the executor.
    let v = 8usize;
    let mut prog: Program<u64, u64> = Program::new(v, v);
    prog.step(0, "naps", |_, ctx, _, _| {
        if ctx.vp == 5 {
            std::thread::sleep(Duration::from_millis(300));
        }
    });
    let sink = Arc::new(TelemetrySink::for_workers(2));
    let run_opts = RunOptions {
        workers: Some(2),
        stall_timeout: Some(Duration::from_millis(50)),
        telemetry: Some(Arc::clone(&sink)),
        ..Default::default()
    };
    let err = run(&prog, vec![0u64; v], &run_opts).expect_err("stall must fail the run");
    match err {
        ModelError::GangStall { round: 1, missing: 1, stalled } => {
            assert_eq!(stalled.len(), 1, "exactly the lost worker is attributed");
            assert_eq!(stalled[0].worker, 1, "shard 1 holds VP 5");
            assert_eq!(stalled[0].site, Some("shard:exec"), "last seen in its exec phase");
            assert_eq!(stalled[0].superstep, 0);
        }
        other => panic!("wrong error {other:?}"),
    }
    // The rendered error carries the attribution too.
    let sink2 = Arc::new(TelemetrySink::for_workers(2));
    let run_opts = RunOptions { telemetry: Some(Arc::clone(&sink2)), ..run_opts };
    let msg = run(&prog, vec![0u64; v], &run_opts).expect_err("stall must fail").to_string();
    assert!(msg.contains("worker 1 last in `shard:exec`"), "unhelpful stall report: {msg}");
}

#[test]
fn capture_failpoint_is_reachable_and_structured() {
    // Capture is one serial run, so a panic during capture rides the serial
    // loop's own recovery. The driver program gains a last, dynamic step
    // whose body panics at VP 5 while `trip` is set: the capture must fail
    // structured, add no plans and leave the program runnable, and a clean
    // capture afterwards must still reach 100% coverage and replay
    // identically.
    let trip = Arc::new(AtomicBool::new(false));
    let mut prog = mixed_program();
    let armed = Arc::clone(&trip);
    prog.step(0, "trip", move |_, ctx, _, _| {
        if ctx.vp == 5 && armed.load(Ordering::Relaxed) {
            panic!("tripped during capture");
        }
    });
    let baseline = run(&prog, init_states(), &opts(1)).expect("baseline");
    let planned = prog.planned_steps();

    trip.store(true, Ordering::Relaxed);
    let err = prog.capture_plans(init_states()).expect_err("a panicking capture must fail");
    trip.store(false, Ordering::Relaxed);
    assert!(
        matches!(&err, ModelError::VpPanic { step: "trip", vp: 5, payload }
            if payload.contains("tripped during capture")),
        "wrong error {err:?}"
    );
    // A failed capture adds no plans and leaves the program runnable …
    assert_eq!(prog.planned_steps(), planned, "a failed capture added plans");
    assert_clean(&run(&prog, init_states(), &opts(2)).unwrap(), &baseline, "post-panic run");
    // … and a clean capture afterwards closes every gap.
    let added = prog.capture_plans(init_states()).expect("clean capture");
    assert!(added > 0, "clean capture added nothing");
    assert_eq!(prog.planned_steps(), prog.steps().len(), "not 100% planned");
    for w in [1usize, 2, 4, 8] {
        assert_clean(&run(&prog, init_states(), &opts(w)).unwrap(), &baseline, "captured replay");
    }
}
