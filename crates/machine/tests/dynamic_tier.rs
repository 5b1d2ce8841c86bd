//! The dynamic tier at a machine size the property suites do not reach:
//! a plan-less program on `M(2^12)` whose steps cover the traffic shapes
//! the metering must get right — a transpose, a top-bit exchange with
//! wiseness dummies, self-sends, and a sparse step — run serially and on
//! 2- and 4-wide gangs, each compared with the reference engine on final
//! states, trace and message log.

use nob_machine::reference::run_reference;
use nob_machine::{run, Inbox, Program, RunOptions};

const LOG_V: u32 = 12;
const V: usize = 1 << LOG_V;

/// Folds a superstep's deliveries into the state in arrival order, so any
/// change of delivery order shows in the final states.
fn absorb(st: &mut u64, inbox: &mut Inbox<'_, u64>) {
    for m in inbox.drain(..) {
        *st = st.wrapping_mul(31).wrapping_add(m);
    }
}

fn program() -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(V, V);
    let side = 1usize << (LOG_V / 2);
    // A transpose of the `side × side` grid of VPs: every VP but the
    // diagonal's sends across the machine.
    prog.step(0, "transpose", move |st, ctx, inbox, out| {
        absorb(st, inbox);
        let (row, col) = (ctx.vp / side, ctx.vp % side);
        out.send(col * side + row, *st);
    });
    // A top-bit exchange; every fourth VP adds two wiseness dummies, one
    // across the top bit and one to its neighbour.
    prog.step(0, "top-bit exchange", |st, ctx, inbox, out| {
        absorb(st, inbox);
        out.send(ctx.vp ^ (ctx.v >> 1), *st);
        if ctx.vp % 4 == 0 {
            out.send_dummy(ctx.vp ^ (ctx.v >> 1));
            out.send_dummy(ctx.vp ^ 1);
        }
    });
    // Self-sends, which count in the total and in no degree, on the finest
    // label: every gang keeps the step shard-local.
    prog.step(LOG_V - 1, "self-sends", |st, ctx, inbox, out| {
        absorb(st, inbox);
        out.send(ctx.vp, *st);
        out.send(ctx.vp, st.rotate_left(7));
    });
    // One sender per 64 VPs, each to a scattered destination.
    prog.step(0, "sparse", |st, ctx, inbox, out| {
        absorb(st, inbox);
        if ctx.vp % 64 == 0 {
            out.send((ctx.vp * 37 + 5) % ctx.v, *st);
        }
    });
    prog.step(0, "consume", |st, _, inbox, _| absorb(st, inbox));
    prog
}

#[test]
fn plan_less_program_at_v_4096_matches_the_reference_at_every_width() {
    let prog = program();
    assert_eq!(prog.planned_steps(), 0, "every step runs on the dynamic tier");
    let states: Vec<u64> = (0..V as u64).map(|x| x.wrapping_mul(0x9e37_79b9) ^ 1).collect();
    let want = run_reference(&prog, states.clone(), &RunOptions::with_log()).unwrap();
    assert_eq!(want.trace.superstep_count(), 5);
    for workers in [1usize, 2, 4] {
        let opts = RunOptions { workers: Some(workers), ..RunOptions::with_log() };
        let got = run(&prog, states.clone(), &opts).unwrap();
        assert_eq!(got.states, want.states, "states at {workers} workers");
        assert_eq!(got.trace, want.trace, "trace at {workers} workers");
        assert_eq!(got.message_log, want.message_log, "message log at {workers} workers");
    }
}
