//! Workspace-level equivalence property tests for the engine on the *real*
//! Section-4 programs (not just toy broadcasts): full-granularity
//! execution, the persistent sharded executor at several worker widths and
//! the preserved legacy reference engine must all agree on final states and
//! traces, and the reference engine's executed folding at `p ∈ {2, 4, 8}`
//! on final states and on every analytic fold of the communication trace.

use network_oblivious::algos::fft::{naive_dft, BinaryExchangeFft, Complex};
use network_oblivious::algos::mm::cannon::CannonMm;
use network_oblivious::algos::mm::space::SpaceEfficientMm;
use network_oblivious::algos::mm::standard::RecursiveMm;
use network_oblivious::algos::mm::MmInput;
use network_oblivious::algos::primitives::{CombineFn, MatrixTranspose, TreeReduce, TreeScan};
use network_oblivious::algos::semiring::{Matrix, WrapU64};
use network_oblivious::algos::sort::ColumnSort;
use network_oblivious::algos::stencil::{
    stencil_reference, DiamondStencil, NaiveStencil, WrapSumOp,
};
use network_oblivious::algos::stencil2::{
    stencil2_reference, NaiveStencil2, OctaStencil, WrapSum2Op,
};
use network_oblivious::machine::reference::{run_folded_reference, run_reference};
use network_oblivious::machine::{run, Ctx, NobAlgorithm, Program, Route, RunOptions};
use proptest::prelude::*;

/// Checks the full set of equivalences for one algorithm instance:
/// full run == reference engine == sharded executor (2, 4 and 8 persistent
/// workers), and the reference folding (states + all fold metrics) at every
/// `p` in `ps`.
fn assert_engine_equivalences<A>(alg: &A, n: usize, input: &A::Input, ps: &[usize])
where
    A: NobAlgorithm,
    A::State: PartialEq + std::fmt::Debug,
{
    let states = alg.init(n, input);
    let prog = alg.build(n);
    let opts = RunOptions::default();
    let full = run(&prog, states.clone(), &opts).unwrap();
    let legacy = run_reference(&prog, states.clone(), &opts).unwrap();
    assert_eq!(full.states, legacy.states, "arena vs reference states, n = {n}");
    assert_eq!(full.trace, legacy.trace, "arena vs reference trace, n = {n}");
    // Communication plans change cost, never results: the same program with
    // plans disabled (dynamic path for every superstep) must agree bit for
    // bit — states, trace, and raw message log.
    let logged = RunOptions::with_log();
    let plan_on = run(&prog, states.clone(), &logged).unwrap();
    let plan_off =
        run(&prog, states.clone(), &RunOptions { use_plans: false, ..RunOptions::with_log() })
            .unwrap();
    assert_eq!(plan_on.states, plan_off.states, "plan-on vs plan-off states, n = {n}");
    assert_eq!(plan_on.trace, plan_off.trace, "plan-on vs plan-off trace, n = {n}");
    assert_eq!(plan_on.message_log, plan_off.message_log, "plan-on vs plan-off log, n = {n}");
    // Sharded planned execution (the direct cross-shard scatter) must agree
    // with the serial run bit for bit — states, trace and message log — at
    // every width; the unfused one-barrier protocol, the dynamic lane path
    // and the validation-off planned path are cross-checked at one width to
    // bound the suite's runtime.
    for (what, opts) in [
        ("sharded planned", RunOptions { workers: Some(2), ..RunOptions::with_log() }),
        ("sharded planned", RunOptions { workers: Some(4), ..RunOptions::with_log() }),
        ("sharded planned", RunOptions { workers: Some(8), ..RunOptions::with_log() }),
        ("serial fuse-off", RunOptions { workers: Some(1), fuse: false, ..RunOptions::with_log() }),
        (
            "sharded fuse-off",
            RunOptions { workers: Some(4), fuse: false, ..RunOptions::with_log() },
        ),
        (
            "sharded plans-off",
            RunOptions { workers: Some(4), use_plans: false, ..RunOptions::with_log() },
        ),
        (
            "sharded planned no-validate",
            RunOptions { workers: Some(4), validate: false, ..RunOptions::with_log() },
        ),
    ] {
        let w = opts.workers.unwrap();
        let sharded = run(&prog, states.clone(), &opts).unwrap();
        assert_eq!(sharded.states, plan_on.states, "{what} states at {w} workers, n = {n}");
        assert_eq!(sharded.trace, plan_on.trace, "{what} trace at {w} workers, n = {n}");
        assert_eq!(sharded.message_log, plan_on.message_log, "{what} log at {w} workers, n = {n}");
    }
    // The executed folding — the reference engine's — reproduces the full
    // run's states and the analytic fold of its trace at every
    // sub-granularity.
    for &p in ps {
        if p > prog.v() {
            continue;
        }
        let folded = run_folded_reference(&prog, states.clone(), p, &opts).unwrap();
        assert_eq!(folded.states, full.states, "full vs folded states at p = {p}, n = {n}");
        let mut q = 2;
        while q <= p {
            assert_eq!(
                folded.trace.fold(q),
                full.trace.fold(q),
                "executed vs analytic fold metrics at p = {p}, q = {q}, n = {n}"
            );
            q *= 2;
        }
    }
}

/// `Outbox::len` mid-VP reads the same on every path: a [`Program::step`]
/// body that records `out.len()` between its sends (into its own state and
/// into the payloads it sends) must leave identical states, traces and logs
/// on the dynamic path — serial or sharded, validated or not — on the
/// reference engine and its folding, and replayed from its captured plans through the
/// planned kernels, fused or not. (A declared body's writer has no `len`:
/// it sends into its route's slots.)
#[test]
fn outbox_len_mid_vp_reads_alike_on_every_path() {
    let v = 32usize;
    let build = || {
        let mut prog: Program<Vec<usize>, usize> = Program::new(v, v);
        // A payload to the neighbour, a wiseness dummy across the bisection
        // (even VPs only), a payload to the next VP.
        for _ in 0..3 {
            prog.step(0, "len", move |st, ctx, inbox, out| {
                st.extend(inbox.drain(..));
                st.push(out.len());
                out.send(ctx.vp ^ 1, out.len());
                if ctx.vp.is_multiple_of(2) {
                    out.send_dummy(ctx.vp ^ (v / 2));
                }
                st.push(out.len());
                out.send((ctx.vp + 1) % v, 10 + out.len());
                st.push(out.len());
            });
        }
        prog.step(0, "drain", |st, _, inbox, out| {
            st.extend(inbox.drain(..));
            st.push(out.len());
        });
        prog
    };
    let (prog, mut captured) = (build(), build());
    let states = vec![Vec::new(); v];
    let logged = RunOptions::with_log();
    let want = run_reference(&prog, states.clone(), &logged).unwrap();
    // What VP 0 saw: its own counts, then its neighbour's and predecessor's
    // payloads — the lengths read on the sending side.
    assert_eq!(&want.states[0][..6], &[0, 2, 3, 0, 11, 0]);
    assert_eq!(&want.states[1][..6], &[0, 1, 2, 0, 12, 0]);
    let paths = [
        logged.clone(),
        RunOptions { fuse: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(2), ..RunOptions::with_log() },
        RunOptions { workers: Some(4), fuse: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(4), validate: false, ..RunOptions::with_log() },
    ];
    assert_eq!(captured.capture_plans(states.clone()).unwrap(), 4);
    for prog in [&prog, &captured] {
        for opts in &paths {
            let got = run(prog, states.clone(), opts).unwrap();
            assert_eq!(got.states, want.states, "states under {opts:?}");
            assert_eq!(got.trace, want.trace, "trace under {opts:?}");
            assert_eq!(got.message_log, want.message_log, "log under {opts:?}");
        }
        let folded = run_folded_reference(prog, states.clone(), 4, &logged).unwrap();
        assert_eq!(folded.states, want.states, "folded states");
        assert_eq!(folded.trace.fold(4), want.trace.fold(4), "folded metrics");
    }
}

/// A declared body never sends a dummy: the engine emits the route's, at
/// their declared positions among the payloads, on every path. A route
/// that interleaves `Data`, `Dummy`, `Skip` and `End` slots — a dummy
/// before a payload, a VP that ends after one payload, one that only sends
/// dummies — leaves the same states, trace and message log (dummies
/// included) on the reference engine, the dynamic path, the serial planned
/// path fused and not, the sharded one at widths 2 and 4 with validation on
/// and off, and the reference folding at p = 4 keeps the states and the
/// folded metrics; and the log shows where each dummy went.
#[test]
fn declared_dummies_land_at_their_slot_positions_on_every_path() {
    use network_oblivious::machine::Ctx;
    let v = 16usize;
    let route = move |ctx: &Ctx, k: usize| match (ctx.vp, k) {
        (3, 0) => Route::Dummy(2),
        (3, 1) => Route::Dummy(11),
        (3, _) => Route::End,
        (vp, 0) if vp % 2 == 0 => Route::Dummy(vp ^ 8),
        (_, 0) | (_, 2) => Route::Skip,
        (vp, 1) => Route::Data(vp ^ 1),
        (vp, 3) if vp % 4 == 1 => Route::End,
        (vp, 3) => Route::Dummy((vp + 3) % v),
        (vp, _) => Route::Data((vp + 5) % v),
    };
    let mut prog: Program<Vec<(usize, usize)>, (usize, usize)> = Program::new(v, v);
    for _ in 0..3 {
        prog.step_oblivious(0, "interleaved", 5, route, |st, ctx, inbox, out| {
            st.extend(inbox.drain(..));
            let payloads = match ctx.vp {
                3 => 0,
                vp if vp % 4 == 1 => 1,
                _ => 2,
            };
            for j in 0..payloads {
                out.send((ctx.vp, j));
            }
        });
    }
    prog.step_oblivious(
        0,
        "record",
        0,
        |_: &Ctx, _| Route::End,
        |st, _, inbox, _| {
            st.extend(inbox.drain(..));
        },
    );
    let states = vec![Vec::new(); v];
    let logged = RunOptions::with_log();
    let want = run_reference(&prog, states.clone(), &logged).unwrap();
    let log = want.message_log.as_ref().unwrap();
    assert_eq!(
        log[0][..11],
        [(0, 8), (0, 1), (0, 3), (0, 5), (1, 0), (2, 10), (2, 3), (2, 5), (2, 7), (3, 2), (3, 11)],
        "each VP's dummies sit where its route declares them"
    );
    assert_eq!(&want.states[3][..2], &[(2, 0), (14, 1)], "VP 3 sends only dummies, yet hears");
    for opts in [
        RunOptions { use_plans: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(1), ..RunOptions::with_log() },
        RunOptions { workers: Some(1), fuse: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(2), ..RunOptions::with_log() },
        RunOptions { workers: Some(2), validate: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(4), ..RunOptions::with_log() },
        RunOptions { workers: Some(4), validate: false, ..RunOptions::with_log() },
    ] {
        let got = run(&prog, states.clone(), &opts).unwrap();
        assert_eq!(got.states, want.states, "states under {opts:?}");
        assert_eq!(got.trace, want.trace, "trace under {opts:?}");
        assert_eq!(got.message_log, want.message_log, "log under {opts:?}");
    }
    let folded = run_folded_reference(&prog, states.clone(), 4, &logged).unwrap();
    assert_eq!(folded.states, want.states, "folded states");
    assert_eq!(folded.trace.fold(4), want.trace.fold(4), "folded metrics");
}

/// Every path delivers a VP's inbox in one order: ascending source VP, then
/// the source's send order. Algorithms rely on it — `RecursiveMm` names each
/// message by its inbox position — so a declared step whose payloads carry
/// their `(src, k)` must leave every VP the same list on every path, and
/// that list is pinned as literals here, not taken from any engine.
#[test]
fn inbox_order_is_ascending_source_then_send_order_on_every_path() {
    let v = 16usize;
    let mut prog: Program<Vec<(usize, usize)>, (usize, usize)> = Program::new(v, v);
    // VP d hears from d ^ 1 (twice, sent first and last), from d − 5 mod v
    // (another shard and fold at widths and folds of 4) and from itself.
    let route = move |ctx: &Ctx, k: usize| {
        Route::Data(match k {
            0 | 3 => ctx.vp ^ 1,
            1 => (ctx.vp + 5) % v,
            _ => ctx.vp,
        })
    };
    for _ in 0..2 {
        prog.step_oblivious(0, "tagged", 4, route, |st, ctx, inbox, out| {
            st.extend(inbox.drain(..));
            for k in 0..4 {
                out.send((ctx.vp, k));
            }
        });
    }
    prog.step_oblivious(
        0,
        "record",
        0,
        |_: &Ctx, _| Route::End,
        |st, _, inbox, _| {
            st.extend(inbox.drain(..));
        },
    );
    let want_0 = [(0, 2), (1, 0), (1, 3), (11, 1)];
    let want_5 = [(0, 1), (4, 0), (4, 3), (5, 2)];
    let states = vec![Vec::new(); v];
    let logged = RunOptions::with_log();
    let reference = run_reference(&prog, states.clone(), &logged).unwrap();
    assert_eq!(reference.states[0], [want_0, want_0].concat());
    assert_eq!(reference.states[5], [want_5, want_5].concat());
    for opts in [
        RunOptions { workers: Some(1), ..RunOptions::with_log() },
        RunOptions { workers: Some(1), fuse: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(1), use_plans: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(2), ..RunOptions::with_log() },
        RunOptions { workers: Some(2), validate: false, ..RunOptions::with_log() },
        RunOptions { workers: Some(4), ..RunOptions::with_log() },
        RunOptions { workers: Some(4), validate: false, ..RunOptions::with_log() },
    ] {
        let got = run(&prog, states.clone(), &opts).unwrap();
        assert_eq!(got.states, reference.states, "states under {opts:?}");
        assert_eq!(got.message_log, reference.message_log, "log under {opts:?}");
    }
    let folded = run_folded_reference(&prog, states, 4, &logged).unwrap();
    assert_eq!(folded.states, reference.states, "folded p = 4 states");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FFT: random signals, sizes 8..=256, folds p ∈ {2, 4, 8}.
    #[test]
    fn fft_full_folded_and_reference_agree(lg in 3u32..9, seed in any::<u64>()) {
        let n = 1usize << lg;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        };
        let xs: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        assert_engine_equivalences(&BinaryExchangeFft, n, &xs[..], &[2, 4, 8]);
        // And the algorithm still computes the DFT through the arena engine.
        let (got, _) = network_oblivious::machine::execute(
            &BinaryExchangeFft,
            n,
            &xs[..],
            &RunOptions::default(),
        )
        .unwrap();
        let want = naive_dft(&xs);
        let eps = 1e-9 * (n as f64) * 8.0;
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(g.close_to(*w, eps), "{:?} vs {:?}", g, w);
        }
    }

    /// Columnsort: random keys (duplicate-heavy and full-range universes),
    /// sizes 8..=512, folds p ∈ {2, 4, 8}.
    #[test]
    fn sort_full_folded_and_reference_agree(
        lg in 3u32..10,
        seed in any::<u64>(),
        small_universe in any::<bool>(),
    ) {
        let n = 1usize << lg;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let keys: Vec<u64> =
            (0..n).map(|_| if small_universe { next() % 4 } else { next() }).collect();
        let alg = ColumnSort::<u64>::default();
        assert_engine_equivalences(&alg, n, &keys[..], &[2, 4, 8]);
        let (got, _) = network_oblivious::machine::execute(
            &alg,
            n,
            &keys[..],
            &RunOptions::default(),
        )
        .unwrap();
        let mut want = keys.clone();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Recursive MM (Thm. 4.2): random wrap-arithmetic operands at n = 64
    /// (the smallest supported 64^e size), wise and unwise variants,
    /// folds p ∈ {2, 4, 8}.
    #[test]
    fn recursive_mm_full_folded_and_reference_agree(seed in any::<u64>(), wise in any::<bool>()) {
        let n = 64usize;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            WrapU64(state)
        };
        let side = 8; // √64
        let a = Matrix::from_fn(side, |_, _| next());
        let b = Matrix::from_fn(side, |_, _| next());
        let input = MmInput::new(a, b);
        let alg = RecursiveMm::<WrapU64>::new(wise);
        assert_engine_equivalences(&alg, n, &input, &[2, 4, 8]);
    }

    /// Cannon's algorithm on the Morton layout: n ∈ {16, 64, 256},
    /// folds p ∈ {2, 4, 8}; the output must be the semiring product.
    #[test]
    fn cannon_mm_full_folded_and_reference_agree(e in 2u32..5, seed in any::<u64>()) {
        let n = 1usize << (2 * e); // 4^e: 16, 64, 256
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            WrapU64(state)
        };
        let side = 1usize << e;
        let a = Matrix::from_fn(side, |_, _| next());
        let b = Matrix::from_fn(side, |_, _| next());
        let input = MmInput::new(a.clone(), b.clone());
        let alg = CannonMm::<WrapU64>::default();
        assert_engine_equivalences(&alg, n, &input, &[2, 4, 8]);
        let (got, _) = network_oblivious::machine::execute(
            &alg,
            n,
            &input,
            &RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(got, a.mul_reference(&b));
    }

    /// 1-D diamond stencil: random inputs, sizes 8..=64, folds p ∈ {2, 4, 8};
    /// the output must match the direct time-stepped reference.
    #[test]
    fn stencil1_full_folded_and_reference_agree(lg in 3u32..7, seed in any::<u64>()) {
        let n = 1usize << lg;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xs: Vec<u64> = (0..n).map(|_| next()).collect();
        let alg = DiamondStencil::<WrapSumOp>::default();
        assert_engine_equivalences(&alg, n, &xs[..], &[2, 4, 8]);
        let (got, _) = network_oblivious::machine::execute(
            &alg,
            n,
            &xs[..],
            &RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(got, stencil_reference::<WrapSumOp>(&xs));
    }

    /// 2-D octagonal stencil on v = n² VPs: sides 4 and 8, folds
    /// p ∈ {2, 4, 8}; the output must match the direct reference.
    #[test]
    fn stencil2_full_folded_and_reference_agree(lg in 2u32..4, seed in any::<u64>()) {
        let n = 1usize << lg; // grid side; v = n^2 ∈ {16, 64}
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xs: Vec<u64> = (0..n * n).map(|_| next()).collect();
        let alg = OctaStencil::<WrapSum2Op>::default();
        assert_engine_equivalences(&alg, n, &xs[..], &[2, 4, 8]);
        let (got, _) = network_oblivious::machine::execute(
            &alg,
            n,
            &xs[..],
            &RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(got, stencil2_reference::<WrapSum2Op>(&xs, n));
    }

    /// The space-efficient MM (§4.1.1), which names each operand entry by
    /// its inbox position: n ∈ {16, 64}, wise and unwise, folds
    /// p ∈ {2, 4, 8}; the output must be the semiring product.
    #[test]
    fn space_mm_full_folded_and_reference_agree(
        e in 2u32..4,
        seed in any::<u64>(),
        wise in any::<bool>(),
    ) {
        let n = 1usize << (2 * e);
        let mut next = xorshift(seed);
        let side = 1usize << e;
        let a = Matrix::from_fn(side, |_, _| WrapU64(next()));
        let b = Matrix::from_fn(side, |_, _| WrapU64(next()));
        let input = MmInput::new(a.clone(), b.clone());
        let alg = SpaceEfficientMm::<WrapU64>::new(wise);
        assert_engine_equivalences(&alg, n, &input, &[2, 4, 8]);
        let (got, _) = network_oblivious::machine::execute(
            &alg,
            n,
            &input,
            &RunOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(got, a.mul_reference(&b));
    }

    /// Tree reduction and the two-sweep scan: sizes 2..=128, folds
    /// p ∈ {2, 4, 8}; the outputs must be the sum and the prefix sums.
    #[test]
    fn tree_primitives_full_folded_and_reference_agree(lg in 1u32..8, seed in any::<u64>()) {
        let n = 1usize << lg;
        let mut next = xorshift(seed);
        let xs: Vec<u64> = (0..n).map(|_| next()).collect();
        fn add(a: &u64, b: &u64) -> u64 {
            a.wrapping_add(*b)
        }
        let reduce = TreeReduce { op: add as CombineFn<u64> };
        assert_engine_equivalences(&reduce, n, &xs[..], &[2, 4, 8]);
        let (total, _) =
            network_oblivious::machine::execute(&reduce, n, &xs[..], &RunOptions::default())
                .unwrap();
        prop_assert_eq!(total, xs.iter().fold(0u64, |acc, x| acc.wrapping_add(*x)));
        let scan = TreeScan { op: add as CombineFn<u64> };
        assert_engine_equivalences(&scan, n, &xs[..], &[2, 4, 8]);
        let (prefix, _) =
            network_oblivious::machine::execute(&scan, n, &xs[..], &RunOptions::default())
                .unwrap();
        let want: Vec<u64> = xs
            .iter()
            .scan(0u64, |acc, x| {
                *acc = acc.wrapping_add(*x);
                Some(*acc)
            })
            .collect();
        prop_assert_eq!(prefix, want);
    }

    /// Matrix transposition: n ∈ {4, 16, 64}, folds p ∈ {2, 4, 8}.
    #[test]
    fn transpose_full_folded_and_reference_agree(e in 1u32..4, seed in any::<u64>()) {
        let (side, n) = (1usize << e, 1usize << (2 * e));
        let mut next = xorshift(seed);
        let xs: Vec<f64> = (0..n).map(|_| (next() % 1_000_000) as f64).collect();
        assert_engine_equivalences(&MatrixTranspose, n, &xs[..], &[2, 4, 8]);
        let (got, _) = network_oblivious::machine::execute(
            &MatrixTranspose,
            n,
            &xs[..],
            &RunOptions::default(),
        )
        .unwrap();
        for (k, x) in got.iter().enumerate() {
            prop_assert_eq!(*x, xs[(k % side) * side + k / side]);
        }
    }

    /// The time-stepping stencil baselines, which name each neighbour's
    /// value by its inbox position: 1-D on n ∈ {8, 16, 32}, 2-D on sides
    /// {2, 4, 8}, folds p ∈ {2, 4, 8}; the outputs must match the direct
    /// references.
    #[test]
    fn naive_stencils_full_folded_and_reference_agree(lg in 1u32..4, seed in any::<u64>()) {
        let mut next = xorshift(seed);
        let n = 1usize << (lg + 2);
        let xs: Vec<u64> = (0..n).map(|_| next()).collect();
        let alg = NaiveStencil::<WrapSumOp>::default();
        assert_engine_equivalences(&alg, n, &xs[..], &[2, 4, 8]);
        let (got, _) =
            network_oblivious::machine::execute(&alg, n, &xs[..], &RunOptions::default())
                .unwrap();
        prop_assert_eq!(got, stencil_reference::<WrapSumOp>(&xs));
        let side = 1usize << lg;
        let xs: Vec<u64> = (0..side * side).map(|_| next()).collect();
        let alg = NaiveStencil2::<WrapSum2Op>::default();
        assert_engine_equivalences(&alg, side, &xs[..], &[2, 4, 8]);
        let (got, _) =
            network_oblivious::machine::execute(&alg, side, &xs[..], &RunOptions::default())
                .unwrap();
        prop_assert_eq!(got, stencil2_reference::<WrapSum2Op>(&xs, side));
    }
}

/// The seeded xorshift stream the newer cases draw their inputs from.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}
