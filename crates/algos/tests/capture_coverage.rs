//! 100%-planned coverage via trace capture.
//!
//! Every shipped algorithm must run *all* of its supersteps planned once
//! `Program::capture_plans` has filled the gaps left by dynamic (data- or
//! value-dependent) steps. Every shipped algorithm declares every route up
//! front — FFT, sorts, the three MMs, broadcasts, the tree primitives, the
//! transpose and the stencils — so capture must be a no-op: each program
//! is already fully planned, and the replay of its program on every
//! executor tier — serial, sharded, fused and unfused — must reproduce the
//! live run. Capture itself, on programs with undeclared steps, is tested
//! in `nob-machine`'s `capture_replay.rs`.
//!
//! The `*_captures_to_full_coverage` cases of the tree primitives, the
//! transpose, the space-efficient MM and the two recursive stencils keep
//! their names from when those algorithms left steps to capture; they now
//! assert that capture adds nothing.

use nob_algos::broadcast::{AwareBroadcast, ObliviousBroadcast};
use nob_algos::fft::{BinaryExchangeFft, Complex, RecursiveFft};
use nob_algos::mm::cannon::CannonMm;
use nob_algos::mm::space::SpaceEfficientMm;
use nob_algos::mm::standard::RecursiveMm;
use nob_algos::mm::MmInput;
use nob_algos::primitives::{CombineFn, MatrixTranspose, TreeReduce, TreeScan};
use nob_algos::semiring::{Matrix, WrapU64};
use nob_algos::sort::{BitonicSort, ColumnSort};
use nob_algos::stencil::{DiamondStencil, WrapSumOp};
use nob_algos::stencil2::{OctaStencil, WrapSum2Op};
use nob_machine::{execute, run, NobAlgorithm, RunOptions};

/// Deterministic value stream shared by all fixtures.
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Captures the dynamic steps of `alg`'s program, asserts the 100%-planned
/// invariant, replays the captured program on every executor tier, and
/// returns how many plans capture added.
fn capture_and_replay<A: NobAlgorithm>(alg: &A, n: usize, input: &A::Input) -> usize
where
    A::Output: PartialEq + std::fmt::Debug,
{
    let name = alg.name();
    let (want, _) = execute(alg, n, input, &RunOptions::default())
        .unwrap_or_else(|e| panic!("{name}: dynamic baseline failed: {e}"));

    let mut prog = alg.build(n);
    let total = prog.steps().len();
    let declared = prog.planned_steps();
    let added = prog
        .capture_plans(alg.init(n, input))
        .unwrap_or_else(|e| panic!("{name}: capture failed: {e}"));
    assert_eq!(declared + added, total, "{name}: capture left a dynamic step unplanned");
    assert_eq!(prog.planned_steps(), total, "{name}: not 100% planned after capture");

    let tiers = [
        RunOptions { parallel: false, ..Default::default() },
        RunOptions { workers: Some(4), ..Default::default() },
        RunOptions { workers: Some(4), fuse: false, ..Default::default() },
        RunOptions { validate: false, ..Default::default() },
    ];
    for (i, opts) in tiers.into_iter().enumerate() {
        let res = run(&prog, alg.init(n, input), &opts)
            .unwrap_or_else(|e| panic!("{name}: captured replay tier {i} failed: {e}"));
        assert_eq!(alg.extract(n, res.states), want, "{name}: replay tier {i} diverged");
    }
    added
}

fn add(a: &u64, b: &u64) -> u64 {
    a.wrapping_add(*b)
}

#[test]
fn tree_reduce_captures_to_full_coverage() {
    let xs: Vec<u64> = (0..64).map(|i| i * 3 + 1).collect();
    let alg = TreeReduce { op: add as CombineFn<u64> };
    assert_eq!(capture_and_replay(&alg, 64, &xs[..]), 0);
}

#[test]
fn tree_scan_captures_to_full_coverage() {
    let mut next = rng(11);
    let xs: Vec<u64> = (0..64).map(|_| next()).collect();
    let alg = TreeScan { op: add as CombineFn<u64> };
    assert_eq!(capture_and_replay(&alg, 64, &xs[..]), 0);
}

#[test]
fn matrix_transpose_captures_to_full_coverage() {
    let xs: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
    assert_eq!(capture_and_replay(&MatrixTranspose, 64, &xs[..]), 0);
}

#[test]
fn broadcasts_are_already_fully_planned() {
    assert_eq!(capture_and_replay(&ObliviousBroadcast, 16, &7u64), 0);
    assert_eq!(capture_and_replay(&AwareBroadcast { kappa: 2 }, 16, &7u64), 0);
}

#[test]
fn recursive_mm_is_already_fully_planned() {
    let mut next = rng(23);
    let s = 8;
    let input = MmInput::new(
        Matrix::from_fn(s, |_, _| WrapU64(next())),
        Matrix::from_fn(s, |_, _| WrapU64(next())),
    );
    assert_eq!(capture_and_replay(&RecursiveMm::<WrapU64>::new(true), 64, &input), 0);
    assert_eq!(capture_and_replay(&RecursiveMm::<WrapU64>::new(false), 64, &input), 0);
}

#[test]
fn space_efficient_mm_captures_to_full_coverage() {
    let mut next = rng(31);
    let s = 8;
    let input = MmInput::new(
        Matrix::from_fn(s, |_, _| WrapU64(next())),
        Matrix::from_fn(s, |_, _| WrapU64(next())),
    );
    assert_eq!(capture_and_replay(&SpaceEfficientMm::<WrapU64>::default(), 64, &input), 0);
}

#[test]
fn cannon_mm_is_already_fully_planned() {
    let mut next = rng(41);
    let s = 4;
    let input = MmInput::new(
        Matrix::from_fn(s, |_, _| WrapU64(next())),
        Matrix::from_fn(s, |_, _| WrapU64(next())),
    );
    assert_eq!(capture_and_replay(&CannonMm::<WrapU64>::default(), 16, &input), 0);
}

#[test]
fn diamond_stencil_captures_to_full_coverage() {
    let mut next = rng(53);
    let xs: Vec<u64> = (0..32).map(|_| next() % 1_000_000).collect();
    assert_eq!(capture_and_replay(&DiamondStencil::<WrapSumOp>::default(), 32, &xs[..]), 0);
}

#[test]
fn octa_stencil_captures_to_full_coverage() {
    let mut next = rng(61);
    let n = 4;
    let xs: Vec<u64> = (0..n * n).map(|_| next() % 1_000_000).collect();
    assert_eq!(capture_and_replay(&OctaStencil::<WrapSum2Op>::default(), n, &xs[..]), 0);
}

#[test]
fn ffts_are_already_fully_planned() {
    let mut next = rng(71);
    let mut val = move || (next() % 1000) as f64 / 100.0;
    let xs: Vec<Complex> = (0..16).map(|_| Complex::new(val(), val())).collect();
    assert_eq!(capture_and_replay(&RecursiveFft::default(), 16, &xs[..]), 0);
    assert_eq!(capture_and_replay(&BinaryExchangeFft, 16, &xs[..]), 0);
}

#[test]
fn sorts_are_already_fully_planned() {
    let mut next = rng(83);
    let keys: Vec<u64> = (0..64).map(|_| next()).collect();
    assert_eq!(capture_and_replay(&ColumnSort::<u64>::default(), 64, &keys[..]), 0);
    assert_eq!(capture_and_replay(&BitonicSort::<u64>::default(), 64, &keys[..]), 0);
}
