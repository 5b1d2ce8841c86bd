//! Property tests of the communication-plan layer: for *arbitrary* oblivious
//! programs, executing from the compiled [`StepPlan`]s (analytic metrics,
//! compile-proven cluster constraint, direct-write scatter) must be
//! **bit-for-bit indistinguishable** from dynamic execution — states, trace
//! and raw message log, at full granularity and every folding, on the serial
//! and the sharded path — and a mis-declared route must be rejected under
//! validation instead of silently corrupting metrics.
//!
//! Validation compares a route *digest*, so the second half of this file
//! holds it to an independent oracle: the exact per-send lockstep walk of
//! the declared route, which lives only here.

use nob_core::ModelError;
use nob_machine::reference::{run_folded_reference, run_reference};
use nob_machine::{run, run_folded, Ctx, Program, Route, RunOptions};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

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
    /// write — even with validation (and thus the route digest) off.
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

// --- Validation against an independent oracle ------------------------------

/// The exact check validation replaced: one step of a lockstep walk of a
/// VP's declared route. Advances `k` past [`Route::Skip`] holes to the next
/// declared send and returns it as `(dst, is_data)`, or `None` once the
/// declaration is exhausted (`k` reaches `out_degree` or the route returns
/// [`Route::End`]).
fn walk_next(
    route: &dyn Fn(&Ctx, usize) -> Route,
    ctx: &Ctx,
    k: &mut usize,
    out_degree: usize,
) -> Option<(usize, bool)> {
    while *k < out_degree {
        let r = route(ctx, *k);
        *k += 1;
        match r {
            Route::Data(d) => return Some((d, true)),
            Route::Dummy(d) => return Some((d, false)),
            Route::Skip => {}
            Route::End => {
                *k = out_degree;
                return None;
            }
        }
    }
    None
}

#[test]
fn walk_next_skips_and_finishes() {
    let route = |ctx: &Ctx, k: usize| match (ctx.vp, k) {
        (1, 0) => Route::Skip,
        (1, 1) => Route::Data(0),
        (1, 2) => Route::Dummy(3),
        (3, 0) => Route::End,
        (3, _) => Route::Data(0),
        _ => Route::Skip,
    };
    let ctx = Ctx { vp: 1, v: 4, log_v: 2, n: 4 };
    let mut k = 0;
    assert_eq!(walk_next(&route, &ctx, &mut k, 3), Some((0, true)));
    assert_eq!(walk_next(&route, &ctx, &mut k, 3), Some((3, false)));
    assert_eq!(walk_next(&route, &ctx, &mut k, 3), None);
    let idle = Ctx { vp: 2, ..ctx };
    let mut k = 0;
    assert_eq!(walk_next(&route, &idle, &mut k, 3), None);
    // `End` hides every later slot.
    let ended = Ctx { vp: 3, ..ctx };
    let mut k = 0;
    assert_eq!(walk_next(&route, &ended, &mut k, 3), None);
    assert_eq!(k, 3, "the walk is finished, not paused");
}

/// Every VP's send sequence for one superstep, `(dst, is_data)` in order.
type Sends = Vec<Vec<(usize, bool)>>;

/// The oracle's view of a declared slot table: each VP's walk to the end.
fn walk_all(slots: &[Vec<Route>]) -> Sends {
    let v = slots.len();
    let route = |ctx: &Ctx, k: usize| slots[ctx.vp][k];
    (0..v)
        .map(|vp| {
            let ctx = Ctx { vp, v, log_v: v.ilog2(), n: v };
            let (mut k, mut seq) = (0, Vec::new());
            while let Some(send) = walk_next(&route, &ctx, &mut k, slots[vp].len()) {
                seq.push(send);
            }
            seq
        })
        .collect()
}

/// A random slot table for an `label`-superstep: payloads, dummies, `Skip`
/// holes and `End`s. Destinations come from the cluster at a random depth
/// `≥ label` around each VP — the label's own cluster (a cross-shard step
/// at small labels) down to the VP itself (shard-local at every width, so
/// fused).
fn random_slots(rng: &mut TestRng, v: usize, label: u32, out_degree: usize) -> Vec<Vec<Route>> {
    let log_v = v.ilog2();
    let reach = label + rng.below(u64::from(log_v - label) + 1) as u32;
    let cluster = v >> reach;
    (0..v)
        .map(|vp| {
            let base = vp - vp % cluster;
            let mut ended = false;
            (0..out_degree)
                .map(|_| {
                    if ended {
                        return Route::End;
                    }
                    let dst = base + rng.below(cluster as u64) as usize;
                    match rng.below(10) {
                        0..=4 => Route::Data(dst),
                        5 | 6 => Route::Dummy(dst),
                        7 | 8 => Route::Skip,
                        _ => {
                            ended = true;
                            Route::End
                        }
                    }
                })
                .collect()
        })
        .collect()
}

/// The ways a closure's sends can leave its declaration that only the
/// exact per-send walk — and now the digest — used to catch.
#[derive(Debug, Clone, Copy)]
enum Divergence {
    Honest,
    /// One payload to another VP of the same cluster.
    WrongDst,
    /// Two neighbouring VPs (`a`, `a ^ 1`) trade payload destinations:
    /// every per-destination count is unchanged.
    SwapNeighbours,
    /// VPs `a` and `a + v/2` — two shards at every width ≥ 2 — trade
    /// payload destinations (in a 0-superstep, so both stay legal).
    SwapAcrossHalves,
    /// A VP's first two sends in the other order.
    SwapWithinVp,
    DataAsDummy,
    DummyAsData,
    DropDummy,
    AddDummy,
}

const DIVERGENCES: [Divergence; 9] = [
    Divergence::Honest,
    Divergence::WrongDst,
    Divergence::SwapNeighbours,
    Divergence::SwapAcrossHalves,
    Divergence::SwapWithinVp,
    Divergence::DataAsDummy,
    Divergence::DummyAsData,
    Divergence::DropDummy,
    Divergence::AddDummy,
];

/// Applies `kind` to the first VP (scanning cyclically from `start`) whose
/// sends have the shape it needs; a table with no such VP is left honest —
/// the oracle, not this function, decides whether the sends diverge.
fn inject(kind: Divergence, sends: &mut Sends, label: u32, start: usize) {
    let v = sends.len();
    let first_data = |seq: &[(usize, bool)]| seq.iter().position(|s| s.1);
    let first_dummy = |seq: &[(usize, bool)]| seq.iter().position(|s| !s.1);
    let swap_first_payloads = |sends: &mut Sends, a: usize, b: usize| {
        if let (Some(i), Some(j)) = (first_data(&sends[a]), first_data(&sends[b])) {
            let (da, db) = (sends[a][i].0, sends[b][j].0);
            sends[a][i].0 = db;
            sends[b][j].0 = da;
            return true;
        }
        false
    };
    for vp in (0..v).map(|i| (start + i) % v) {
        let seq = &mut sends[vp];
        let done = match kind {
            Divergence::Honest => true,
            Divergence::WrongDst => first_data(seq).is_some_and(|i| {
                let cluster = v >> label;
                let base = vp - vp % cluster;
                seq[i].0 = base + (seq[i].0 - base + 1) % cluster;
                true
            }),
            Divergence::SwapNeighbours => swap_first_payloads(sends, vp, vp ^ 1),
            Divergence::SwapAcrossHalves => {
                let a = vp % (v / 2);
                swap_first_payloads(sends, a, a + v / 2)
            }
            Divergence::SwapWithinVp => {
                seq.len() >= 2 && {
                    seq.swap(0, 1);
                    true
                }
            }
            Divergence::DataAsDummy => first_data(seq).is_some_and(|i| {
                seq[i].1 = false;
                true
            }),
            Divergence::DummyAsData => first_dummy(seq).is_some_and(|i| {
                seq[i].1 = true;
                true
            }),
            Divergence::DropDummy => first_dummy(seq).is_some_and(|i| {
                seq.remove(i);
                true
            }),
            Divergence::AddDummy => {
                seq.push((vp, false));
                true
            }
        };
        if done {
            return;
        }
    }
}

/// A program of declared steps whose closures replay `actual` instead of
/// the declaration, plus a planned consuming step.
fn replay_program(v: usize, steps: Vec<(u32, Vec<Vec<Route>>, Sends)>) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for (label, slots, actual) in steps {
        let out_degree = slots[0].len();
        let slots = Arc::new(slots);
        prog.step_oblivious(
            label,
            "replayed",
            out_degree,
            move |ctx, k| slots[ctx.vp][k],
            move |st, ctx, inbox, out| {
                for m in inbox.drain(..) {
                    *st = st.wrapping_mul(31).wrapping_add(m);
                }
                for (j, &(dst, data)) in actual[ctx.vp].iter().enumerate() {
                    if data {
                        out.send(dst, *st ^ mix(j as u64 + 1));
                    } else {
                        out.send_dummy(dst);
                    }
                }
            },
        );
    }
    prog.step_oblivious(log_v - 1, "consume", 0, |_, _| Route::End, |st, _ctx, inbox, _out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
    });
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// Validation ≡ the exact lockstep walk. Random declared programs —
    /// `Skip` holes, `End`s, dummies, fused and cross-shard steps — with one
    /// divergence of each kind injected into one step. A validated run, at
    /// widths 1, 2 and 4 with fusion on and off and folded, fails with a
    /// `PlanMismatch` exactly when the oracle's walk of the declared route
    /// disagrees with the closure's sends; otherwise it equals the
    /// reference engine bit for bit.
    #[test]
    fn validation_rejects_exactly_what_the_lockstep_walk_rejects(
        log_v in 2u32..6,
        n_steps in 1usize..4,
        seed in any::<u64>(),
        which in 0usize..9,
    ) {
        let v = 1usize << log_v;
        let kind = DIVERGENCES[which];
        let mut rng = TestRng::new(seed);
        let bad = rng.below(n_steps as u64) as usize;
        let mut steps = Vec::new();
        let mut diverges = false;
        for t in 0..n_steps {
            let label = match kind {
                // Only a 0-superstep lets two halves of the machine trade
                // destinations legally.
                Divergence::SwapAcrossHalves if t == bad => 0,
                _ => rng.below(u64::from(log_v)) as u32,
            };
            let out_degree = 1 + rng.below(4) as usize;
            let slots = random_slots(&mut rng, v, label, out_degree);
            let declared = walk_all(&slots);
            let mut actual = declared.clone();
            if t == bad {
                inject(kind, &mut actual, label, rng.below(v as u64) as usize);
            }
            diverges |= actual != declared;
            steps.push((label, slots, actual));
        }
        let prog = replay_program(v, steps);
        let states: Vec<u64> = (0..v as u64).map(|x| x * 7 + 3).collect();
        let check = |what: &str, got: Result<nob_machine::RunResult<u64>, ModelError>,
                     want: &dyn Fn() -> nob_machine::RunResult<u64>| {
            if diverges {
                prop_assert!(
                    matches!(got, Err(ModelError::PlanMismatch { step: "replayed", .. })),
                    "{:?} must be rejected ({}): {:?}", kind, what, got.map(|r| r.states)
                );
            } else {
                let got = got.map_err(|e| TestCaseError::Fail(format!("{what}: {e:?}")))?;
                let want = want();
                prop_assert_eq!(&got.states, &want.states, "{} states", what);
                prop_assert_eq!(&got.trace, &want.trace, "{} trace", what);
                prop_assert_eq!(&got.message_log, &want.message_log, "{} log", what);
            }
            Ok(())
        };
        for w in [1usize, 2, 4] {
            for fuse in [true, false] {
                let opts = RunOptions { workers: Some(w), fuse, ..RunOptions::with_log() };
                let what = format!("w = {w}, fuse = {fuse}");
                check(&what, run(&prog, states.clone(), &opts), &|| {
                    run_reference(&prog, states.clone(), &opts).unwrap()
                })?;
            }
            for p in [2, v / 2] {
                // The folded reference keeps no message log; the full runs
                // above compare logs.
                let opts = RunOptions { workers: Some(w), ..RunOptions::default() };
                let what = format!("folded p = {p}, w = {w}");
                check(&what, run_folded(&prog, states.clone(), p, &opts), &|| {
                    run_folded_reference(&prog, states.clone(), p, &opts).unwrap()
                })?;
            }
        }
    }
}

// --- Leak, not drop: a rejected arena under validation ----------------------

/// Payload ids of [`leak_not_drop_under_validation`]: `0..V` for the honest
/// step's messages, `V..3V` for the mis-declared step's.
const LEAK_V: usize = 16;
static DROPS: [AtomicU8; 3 * LEAK_V] = [const { AtomicU8::new(0) }; 3 * LEAK_V];
/// Set by a drop that finds no live payload where one should be.
static GARBAGE_DROP: AtomicBool = AtomicBool::new(false);
/// Set if the step after the rejected one ever runs.
static READ_AFTER_ABORT: AtomicBool = AtomicBool::new(false);

const LIVE: u64 = 0x5eed_cafe_f00d_d00d;

/// A payload that records its own drop, once per id.
struct Counted {
    id: usize,
    live: u64,
}

impl Counted {
    fn new(id: usize) -> Self {
        Counted { id, live: LIVE }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        if self.live != LIVE || self.id >= DROPS.len() {
            GARBAGE_DROP.store(true, Ordering::SeqCst);
            return;
        }
        self.live = 0;
        DROPS[self.id].fetch_add(1, Ordering::SeqCst);
    }
}

/// Under validation a send only the digest rejects has already been
/// written into its bounded slot, so the whole arena of the rejected step
/// is full when the run aborts. It must be leaked — never committed,
/// dropped or read — on the serial writer (width 1) and the cross-shard
/// writer (width 2: the step crosses the bisection), while the honest
/// step's payloads are each dropped exactly once.
#[test]
fn leak_not_drop_under_validation() {
    let v = LEAK_V;
    let mut prog: Program<u64, Counted> = Program::new(v, v);
    prog.step_oblivious(
        0,
        "honest",
        1,
        |ctx, _| Route::Data(ctx.vp ^ 1),
        |_, ctx, _, out| out.send(ctx.vp ^ 1, Counted::new(ctx.vp)),
    );
    // Declared: across the bisection, then to itself. Sent: the other way
    // round — same destinations, same counts, only the order differs.
    prog.step_oblivious(
        0,
        "swapped",
        2,
        move |ctx, k| Route::Data(if k == 0 { ctx.vp ^ (v / 2) } else { ctx.vp }),
        move |_, ctx, inbox, out| {
            inbox.clear();
            out.send(ctx.vp, Counted::new(v + 2 * ctx.vp));
            out.send(ctx.vp ^ (v / 2), Counted::new(v + 2 * ctx.vp + 1));
        },
    );
    prog.step(0, "after", |_, _, inbox, _| {
        if !inbox.is_empty() {
            READ_AFTER_ABORT.store(true, Ordering::SeqCst);
        }
    });
    for w in [1usize, 2] {
        for d in &DROPS {
            d.store(0, Ordering::SeqCst);
        }
        let opts = RunOptions { workers: Some(w), ..RunOptions::default() };
        let err = run(&prog, vec![0; v], &opts).expect_err("order swap must be rejected");
        assert!(
            matches!(err, ModelError::PlanMismatch { step: "swapped", .. }),
            "w = {w}: {err:?}"
        );
        let drops: Vec<u8> = DROPS.iter().map(|d| d.load(Ordering::SeqCst)).collect();
        assert!(drops[..v].iter().all(|&d| d == 1), "w = {w}: honest payloads {drops:?}");
        assert!(drops[v..].iter().all(|&d| d == 0), "w = {w}: rejected payloads {drops:?}");
        assert!(!GARBAGE_DROP.load(Ordering::SeqCst), "w = {w}: a drop read a dead slot");
        assert!(!READ_AFTER_ABORT.load(Ordering::SeqCst), "w = {w}: read after the abort");
    }
}
