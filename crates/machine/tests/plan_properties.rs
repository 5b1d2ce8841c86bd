//! Property tests of the communication-plan layer: for *arbitrary* oblivious
//! programs, executing from the compiled [`StepPlan`]s (analytic metrics,
//! compile-proven cluster constraint, direct-write scatter) must be
//! **bit-for-bit indistinguishable** from dynamic execution — states, trace
//! and raw message log, on the serial and the sharded path, and under the
//! reference engine's folding at every `p` — and a body that breaks its
//! declaration must be rejected instead of silently corrupting metrics.
//!
//! A declared body says what it sends, never where: its writer fills the
//! VP's next declared payload slot, and the engine emits the declared
//! dummies. So of the ways a body's sends could once leave its declaration,
//! these no longer type-check:
//!
//! * a payload to another VP than the route names;
//! * two neighbouring VPs trading payload destinations;
//! * two VPs in different halves of the machine trading destinations;
//! * one VP's sends in another order;
//! * a payload sent as a dummy;
//! * a dummy sent as a payload;
//! * a declared dummy left out;
//! * a dummy the route does not declare.
//!
//! What a body can still get wrong is *how many* payloads it sends, or it
//! can panic. The second half of this file generates those divergences from
//! random slot tables and holds every path to the exact error, with the
//! lockstep walk of the declared route (`walk_next`) as the oracle.
//!
//! [`StepPlan`]: nob_machine::StepPlan

use nob_core::ModelError;
use nob_machine::reference::{run_folded_reference, run_reference};
use nob_machine::{run, Ctx, DeclaredRoute, Inbox, Program, Route, RunOptions, Slots, Xor};
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

/// Folds every delivered message into the state.
fn absorb(st: &mut u64, inbox: &mut Inbox<'_, u64>) {
    for m in inbox.drain(..) {
        *st = st.wrapping_mul(31).wrapping_add(m);
    }
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
/// declared (`oblivious = true`), once purely dynamic, sending to the
/// declared destinations itself. Identical SPMD semantics by construction.
fn build_program(v: usize, steps: &[(u32, u64, u8)], oblivious: bool) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for &(raw_label, seed, fanout) in steps {
        let label = raw_label % log_v.max(1);
        let payload = move |st: u64, k: usize| st ^ mix(seed.wrapping_add(k as u64));
        if oblivious {
            prog.step_oblivious(
                label,
                "random-planned",
                fanout as usize + 1,
                move |ctx: &Ctx, k| slot(ctx.v, label, seed, fanout, ctx.vp, k),
                move |st, _, inbox, out| {
                    absorb(st, inbox);
                    for k in 0..fanout as usize {
                        out.send(payload(*st, k));
                    }
                },
            );
        } else {
            prog.step(label, "random-dynamic", move |st, ctx, inbox, out| {
                absorb(st, inbox);
                for k in 0..=fanout as usize {
                    match slot(ctx.v, label, seed, fanout, ctx.vp, k) {
                        Route::Data(dst) => out.send(dst, payload(*st, k)),
                        Route::Dummy(dst) => out.send_dummy(dst),
                        Route::Skip | Route::End => {}
                    }
                }
            });
        }
    }
    prog.step(log_v - 1, "consume", |st, _ctx, inbox, _out| absorb(st, inbox));
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

    /// The reference engine's folding of a declared program ≡ the run of
    /// its undeclared twin, at every p: a declared body stages its route's
    /// destinations and dummies, so the executed folding keeps the twin's
    /// states and every fold of its trace.
    #[test]
    fn folded_planned_execution_matches_dynamic((v, steps) in arb_steps()) {
        let planned = build_program(v, &steps, true);
        let dynamic = build_program(v, &steps, false);
        let states: Vec<u64> = (0..v as u64).collect();
        let want = run(&dynamic, states.clone(), &RunOptions::default()).unwrap();
        let mut p = 2usize;
        while p <= v {
            let got =
                run_folded_reference(&planned, states.clone(), p, &RunOptions::default()).unwrap();
            prop_assert_eq!(&got.states, &want.states, "folded states p={}", p);
            let mut q = 2usize;
            while q <= p {
                prop_assert_eq!(got.trace.fold(q), want.trace.fold(q), "p={} q={}", p, q);
                q *= 2;
            }
            p *= 2;
        }
    }

    /// A body that sends one payload more than its route declares, on one
    /// VP, is rejected with the exact error on every path — serial direct
    /// write, the sharded direct cross-shard scatter at p ∈ {2, 4, 8}, the
    /// staged dynamic path — under validation and without it; the gang
    /// exits in lockstep with a [`nob_core::ModelError::PlanMismatch`], not
    /// a hang, a panic or memory corruption.
    #[test]
    fn misdeclared_routes_are_rejected_under_validation(
        (v, steps) in arb_steps(),
        step_seed in any::<u64>(),
    ) {
        let (raw_label, _, fanout) = steps[0];
        let mut prog: Program<u64, u64> = Program::new(v, v);
        let log_v = prog.log_v();
        let label = raw_label % log_v.max(1);
        let seed = step_seed;
        let greedy = step_seed as usize % v;
        prog.step_oblivious(
            label,
            "overfull",
            fanout as usize + 1,
            move |ctx: &Ctx, k| slot(ctx.v, label, seed, fanout, ctx.vp, k),
            move |_st, ctx, _inbox, out| {
                let extra = usize::from(ctx.vp == greedy);
                for _ in 0..fanout as usize + extra {
                    out.send(7);
                }
            },
        );
        let want = ModelError::PlanMismatch {
            step: "overfull",
            vp: greedy,
            reason: "more payload messages than the route declares",
        };
        let states: Vec<u64> = vec![0; v];
        for w in [1usize, 2, 4, 8] {
            for (validate, use_plans) in [(true, true), (false, true), (true, false)] {
                let opts =
                    RunOptions { workers: Some(w), validate, use_plans, ..Default::default() };
                let err = run(&prog, states.clone(), &opts)
                    .expect_err("an extra payload must be rejected");
                prop_assert_eq!(
                    &err, &want,
                    "at {} workers, validate = {}, plans = {}", w, validate, use_plans
                );
            }
        }
    }

    /// A captured route whose replay escapes the shard cluster it recorded
    /// is caught as a [`nob_core::ModelError::PlanMismatch`] before the
    /// send enters an out-lane — never handed over to a shard outside the
    /// cluster — with validation on or off. (A declared body cannot escape: its destinations are its
    /// route's, proven cluster-legal at compile time.)
    #[test]
    fn cross_shard_escape_is_plan_mismatch_not_memory_corruption(
        lg in 2u32..6,
        validate in any::<bool>(),
    ) {
        let v = 1usize << lg;
        let escape = Arc::new(AtomicBool::new(false));
        let mut prog: Program<u64, u64> = Program::new(v, v);
        // Captured: a shard-local self-send (label log_v - 1 keeps every
        // cluster inside one shard at w >= 2). Replayed: VP 0 sends across
        // the machine's bisection — outside the captured cluster span.
        let flag = Arc::clone(&escape);
        prog.step(lg - 1, "escapee", move |_st, ctx, _inbox, out| {
            let far = ctx.vp == 0 && flag.load(Ordering::Relaxed);
            out.send(if far { ctx.v - 1 } else { ctx.vp }, 13);
        });
        let states: Vec<u64> = vec![0; v];
        prop_assert_eq!(prog.capture_plans(states.clone()).unwrap(), 1);
        escape.store(true, Ordering::Relaxed);
        let want = ModelError::PlanMismatch {
            step: "escapee",
            vp: 0,
            reason: "sends disagree with the captured route",
        };
        for w in [2usize, 4] {
            let opts = RunOptions { validate, workers: Some(w), ..Default::default() };
            let err = run(&prog, states.clone(), &opts)
                .expect_err("cluster-escaping send must be rejected");
            prop_assert_eq!(&err, &want, "at {} workers (validate = {})", w, validate);
        }
    }
}

// --- Representable divergences against the slot-walk oracle ----------------

/// One step of a lockstep walk of a VP's declared route — the walk the
/// declared writer makes. Advances `k` past [`Route::Skip`] holes to the
/// next declared send and returns it as `(dst, is_data)`, or `None` once
/// the declaration is exhausted (`k` reaches `out_degree` or the route
/// returns [`Route::End`]).
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

/// The destinations of every VP's declared payloads, in slot order: the
/// oracle's walk of a slot table to the end, dummies skipped.
fn payloads(slots: &[Vec<Route>]) -> Vec<Vec<usize>> {
    let v = slots.len();
    let route = |ctx: &Ctx, k: usize| slots[ctx.vp][k];
    (0..v)
        .map(|vp| {
            let ctx = Ctx { vp, v, log_v: v.ilog2(), n: v };
            let (mut k, mut dsts) = (0, Vec::new());
            while let Some((dst, data)) = walk_next(&route, &ctx, &mut k, slots[vp].len()) {
                if data {
                    dsts.push(dst);
                }
            }
            dsts
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

/// The slot table of the butterfly [`Xor`]`(mask)` at `out_degree` slots:
/// its one payload, then `End`.
fn xor_slots(v: usize, mask: usize, out_degree: usize) -> Vec<Vec<Route>> {
    (0..v)
        .map(|vp| {
            let mut slots = vec![Route::End; out_degree];
            slots[0] = Route::Data(vp ^ mask);
            slots
        })
        .collect()
}

/// The divergences a declared body can still commit.
#[derive(Debug, Clone, Copy)]
enum Divergence {
    Honest,
    /// One VP sends one payload more than it declares.
    OneTooMany,
    /// One VP with a declared payload leaves its last one unsent.
    OneTooFew,
    /// A VP that declares no payload sends one.
    FromSilentVp,
    /// One VP panics after its first send (or before any, if it declares
    /// none), mid-walk.
    Panic,
}

const DIVERGENCES: [Divergence; 5] = [
    Divergence::Honest,
    Divergence::OneTooMany,
    Divergence::OneTooFew,
    Divergence::FromSilentVp,
    Divergence::Panic,
];

/// What the body of one step does, per VP: how many payloads it sends, and
/// which VP (if any) panics.
struct Replay {
    sends: Vec<usize>,
    panics: Option<usize>,
}

/// The error a run must fail with, if the divergence was applied: a
/// planned step and a staged one (dynamic path, reference engine) name the
/// same VP but for one case — a payload left unsent, which a planned step
/// finds at the destination it starved and a staged one at the sender.
struct Verdict {
    planned: ModelError,
    staged: ModelError,
}

/// Applies `kind` to the first VP (scanning cyclically from `start`) whose
/// declaration has the shape it needs; a table with no such VP is left
/// honest. Returns the body's replay and, if something diverged, the
/// verdict.
fn inject(kind: Divergence, declared: &[Vec<usize>], start: usize) -> (Replay, Option<Verdict>) {
    let v = declared.len();
    let mut replay = Replay { sends: declared.iter().map(Vec::len).collect(), panics: None };
    let mismatch =
        |vp: usize, reason: &'static str| ModelError::PlanMismatch { step: "replayed", vp, reason };
    let same = |e: ModelError| Some(Verdict { planned: e.clone(), staged: e });
    let vp_where = |shape: &dyn Fn(&[usize]) -> bool| {
        (0..v).map(|i| (start + i) % v).find(|&vp| shape(&declared[vp]))
    };
    let verdict = match kind {
        Divergence::Honest => None,
        Divergence::OneTooMany | Divergence::FromSilentVp => {
            let silent = matches!(kind, Divergence::FromSilentVp);
            vp_where(&|d| !silent || d.is_empty()).and_then(|vp| {
                replay.sends[vp] += 1;
                same(mismatch(vp, "more payload messages than the route declares"))
            })
        }
        Divergence::OneTooFew => vp_where(&|d| !d.is_empty()).map(|vp| {
            replay.sends[vp] -= 1;
            let starved = *declared[vp].last().expect("a declared payload");
            Verdict {
                planned: mismatch(
                    starved,
                    "destination received fewer payload messages than the route declares",
                ),
                staged: mismatch(vp, "fewer payload messages than the route declares"),
            }
        }),
        Divergence::Panic => {
            let vp = start % v;
            replay.panics = Some(vp);
            same(ModelError::VpPanic { step: "replayed", vp, payload: format!("vp {vp} gave up") })
        }
    };
    (replay, verdict)
}

/// A body that follows `replay` instead of its step's declaration.
fn replayed<R: DeclaredRoute>(
    replay: Replay,
) -> impl Fn(&mut u64, &Ctx, &mut Inbox<'_, u64>, &mut Slots<'_, u64, R>) + Send + Sync + 'static {
    move |st, ctx, inbox, out| {
        absorb(st, inbox);
        let panics = replay.panics == Some(ctx.vp);
        for j in 0..replay.sends[ctx.vp] {
            out.send(*st ^ mix(j as u64 + 1));
            if panics {
                panic!("vp {} gave up", ctx.vp);
            }
        }
        if panics {
            panic!("vp {} gave up", ctx.vp);
        }
    }
}

/// One declared step of [`replay_program`]: its slot table, declared as
/// that table or, when `xor` is set, as the route value [`Xor`]`(mask)`
/// whose table it is.
struct Declared {
    label: u32,
    slots: Vec<Vec<Route>>,
    xor: Option<usize>,
    replay: Replay,
}

/// A program of declared steps whose bodies follow their `replay` instead
/// of the declaration, plus a planned consuming step.
fn replay_program(v: usize, steps: Vec<Declared>) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for Declared { label, slots, xor, replay } in steps {
        let out_degree = slots[0].len();
        match xor {
            Some(mask) => {
                prog.step_oblivious(label, "replayed", out_degree, Xor(mask), replayed(replay))
            }
            None => {
                let slots = Arc::new(slots);
                let route = move |ctx: &Ctx, k: usize| slots[ctx.vp][k];
                prog.step_oblivious(label, "replayed", out_degree, route, replayed(replay))
            }
        };
    }
    prog.step_oblivious(
        log_v - 1,
        "consume",
        0,
        |_: &Ctx, _| Route::End,
        |st, _ctx, inbox, _out| absorb(st, inbox),
    );
    prog
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// Random declared programs — `Skip` holes, `End`s, dummies, fused and
    /// cross-shard steps, and butterflies declared as the route value
    /// [`Xor`], whose plans are computed in closed form — with one
    /// representable divergence injected into one step. On every path —
    /// widths 1, 2 and 4, fusion on and off, validation on and off, plans
    /// off, and the reference engine and its folding at p ∈ {2, v/2} — a
    /// divergent run fails with exactly the error the slot-walk oracle
    /// predicts; an honest one equals the reference engine bit for bit,
    /// dummies at their declared positions included.
    #[test]
    fn representable_divergences_are_rejected_exactly_on_every_path(
        log_v in 2u32..6,
        n_steps in 1usize..4,
        seed in any::<u64>(),
        which in 0usize..5,
    ) {
        let v = 1usize << log_v;
        let kind = DIVERGENCES[which];
        let mut rng = TestRng::new(seed);
        let bad = rng.below(n_steps as u64) as usize;
        let mut steps = Vec::new();
        let mut verdict = None;
        for t in 0..n_steps {
            let label = rng.below(u64::from(log_v)) as u32;
            let out_degree = 1 + rng.below(4) as usize;
            // One step in three is a butterfly inside the label's cluster.
            let xor = (rng.below(3) == 0).then(|| rng.below((v >> label) as u64) as usize);
            let slots = match xor {
                Some(mask) => xor_slots(v, mask, out_degree),
                None => random_slots(&mut rng, v, label, out_degree),
            };
            let start = rng.below(v as u64) as usize;
            let honest = if t == bad { kind } else { Divergence::Honest };
            let (replay, diverged) = inject(honest, &payloads(&slots), start);
            verdict = verdict.or(diverged);
            steps.push(Declared { label, slots, xor, replay });
        }
        let prog = replay_program(v, steps);
        let states: Vec<u64> = (0..v as u64).map(|x| x * 7 + 3).collect();
        type Outcome = Result<nob_machine::RunResult<u64>, ModelError>;
        let check = |what: &str, planned: bool, got: Outcome, want: &dyn Fn() -> Outcome| {
            match &verdict {
                Some(verdict) => {
                    let err = if planned { &verdict.planned } else { &verdict.staged };
                    prop_assert_eq!(got.as_ref().err(), Some(err), "{:?} ({})", kind, what);
                }
                None => {
                    let got = got.map_err(|e| TestCaseError::Fail(format!("{what}: {e:?}")))?;
                    let want = want().map_err(|e| TestCaseError::Fail(format!("{what}: {e:?}")))?;
                    prop_assert_eq!(&got.states, &want.states, "{} states", what);
                    prop_assert_eq!(&got.trace, &want.trace, "{} trace", what);
                    prop_assert_eq!(&got.message_log, &want.message_log, "{} log", what);
                }
            }
            Ok(())
        };
        let base = RunOptions::with_log();
        // The reference engine reports mismatches too (a panic it lets
        // unwind).
        if let Some(verdict) = verdict.as_ref().filter(|_| !matches!(kind, Divergence::Panic)) {
            let got = run_reference(&prog, states.clone(), &base).err();
            prop_assert_eq!(got.as_ref(), Some(&verdict.staged), "{:?} (reference)", kind);
        }
        for w in [1usize, 2, 4] {
            for (fuse, validate, use_plans) in
                [(true, true, true), (false, true, true), (true, false, true), (true, true, false)]
            {
                let opts =
                    RunOptions { workers: Some(w), fuse, validate, use_plans, ..base.clone() };
                let what = format!("w = {w}, fuse {fuse}, validate {validate}, plans {use_plans}");
                check(&what, use_plans, run(&prog, states.clone(), &opts), &|| {
                    run_reference(&prog, states.clone(), &opts)
                })?;
            }
        }
        // The executed folding — the reference engine's — fails where the
        // run fails, with the staged path's error (a panic it lets unwind),
        // and otherwise keeps the run's states and the folds of its trace.
        for p in [2, v / 2] {
            let folded = || run_folded_reference(&prog, states.clone(), p, &base);
            match &verdict {
                Some(_) if matches!(kind, Divergence::Panic) => {}
                Some(verdict) => {
                    let got = folded().err();
                    prop_assert_eq!(got.as_ref(), Some(&verdict.staged), "{:?} (p = {})", kind, p);
                }
                None => {
                    let (got, want) = (folded().unwrap(), run(&prog, states.clone(), &base).unwrap());
                    prop_assert_eq!(&got.states, &want.states, "folded states p = {}", p);
                    prop_assert_eq!(got.trace.fold(p), want.trace.fold(p), "folded p = {}", p);
                }
            }
        }
    }
}

// --- Leak, not drop: a rejected arena ----------------------------------------

/// Payload ids of [`leak_not_drop_under_validation`]: `0..V` for the honest
/// step's messages, `V..3V` for the short step's.
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

/// A step whose one VP leaves a payload slot unsent has written every
/// other payload into its bounded slot when the run aborts, so its arena is
/// full but one. It must be leaked — never committed, dropped or read — on
/// the serial writer (width 1) and the cross-shard writer (width 2: the
/// step crosses the bisection), with validation on or off, while the honest
/// step's payloads are each dropped exactly once.
#[test]
fn leak_not_drop_under_validation() {
    let v = LEAK_V;
    let mut prog: Program<u64, Counted> = Program::new(v, v);
    prog.step_oblivious(
        0,
        "honest",
        1,
        |ctx: &Ctx, _| Route::Data(ctx.vp ^ 1),
        |_, ctx, _, out| out.send(Counted::new(ctx.vp)),
    );
    // Declared: across the bisection, then to itself. VP 5 stops short.
    prog.step_oblivious(
        0,
        "short",
        2,
        move |ctx: &Ctx, k| Route::Data(if k == 0 { ctx.vp ^ (v / 2) } else { ctx.vp }),
        move |_, ctx, inbox, out| {
            inbox.clear();
            out.send(Counted::new(v + 2 * ctx.vp));
            if ctx.vp != 5 {
                out.send(Counted::new(v + 2 * ctx.vp + 1));
            }
        },
    );
    prog.step(0, "after", |_, _, inbox, _| {
        if !inbox.is_empty() {
            READ_AFTER_ABORT.store(true, Ordering::SeqCst);
        }
    });
    for w in [1usize, 2] {
        for validate in [true, false] {
            for d in &DROPS {
                d.store(0, Ordering::SeqCst);
            }
            let opts = RunOptions { workers: Some(w), validate, ..RunOptions::default() };
            let err = run(&prog, vec![0; v], &opts).expect_err("a short VP must be rejected");
            let what = format!("w = {w}, validate = {validate}");
            assert_eq!(
                err,
                ModelError::PlanMismatch {
                    step: "short",
                    vp: 5,
                    reason: "destination received fewer payload messages than the route declares",
                },
                "{what}"
            );
            let drops: Vec<u8> = DROPS.iter().map(|d| d.load(Ordering::SeqCst)).collect();
            assert!(drops[..v].iter().all(|&d| d == 1), "{what}: honest payloads {drops:?}");
            assert!(drops[v..].iter().all(|&d| d == 0), "{what}: rejected payloads {drops:?}");
            assert!(!GARBAGE_DROP.load(Ordering::SeqCst), "{what}: a drop read a dead slot");
            assert!(!READ_AFTER_ABORT.load(Ordering::SeqCst), "{what}: read after the abort");
        }
    }
}
