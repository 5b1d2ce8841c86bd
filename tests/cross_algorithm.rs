//! Integration: every algorithm in the repository computes the right answer
//! at full granularity AND under folding — the reference engine's executed
//! folding onto every `M(p)` reproduces the outputs, and its metrics are the
//! analytic fold of the full trace: the Section-2 folding semantics, end to
//! end.

use network_oblivious::algos::broadcast::{AwareBroadcast, ObliviousBroadcast};
use network_oblivious::algos::fft::{naive_dft, BinaryExchangeFft, Complex, RecursiveFft};
use network_oblivious::algos::mm::cannon::CannonMm;
use network_oblivious::algos::mm::space::SpaceEfficientMm;
use network_oblivious::algos::mm::standard::RecursiveMm;
use network_oblivious::algos::mm::MmInput;
use network_oblivious::algos::primitives::{CombineFn, MatrixTranspose, TreeReduce, TreeScan};
use network_oblivious::algos::semiring::{Matrix, WrapU64};
use network_oblivious::algos::sort::{BitonicSort, ColumnSort};
use network_oblivious::algos::stencil::{
    stencil_reference, DiamondStencil, NaiveStencil, WrapSumOp,
};
use network_oblivious::algos::stencil2::{
    stencil2_reference, NaiveStencil2, OctaStencil, WrapSum2Op,
};
use network_oblivious::machine::reference::run_folded_reference;
use network_oblivious::machine::{execute, NobAlgorithm, RunOptions};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Runs `alg` at full granularity, and its folding onto every power-of-two
/// `p ≤ v` through the reference engine, asserting that `same` holds of the
/// two outputs and that the folding's trace gives the full trace's
/// `fold(q)` for every `q ≤ p`.
fn folding_invariant_by<A: NobAlgorithm>(
    alg: &A,
    n: usize,
    input: &A::Input,
    same: impl Fn(&A::Output, &A::Output) -> bool,
) {
    let v = alg.v(n);
    let (full, full_trace) = execute(alg, n, input, &RunOptions::default()).unwrap();
    let prog = alg.build(n);
    let mut p = 2usize;
    while p <= v {
        let states = alg.init(n, input);
        let folded = run_folded_reference(&prog, states, p, &RunOptions::default()).unwrap();
        let (out, trace) = (alg.extract(n, folded.states), folded.trace);
        assert!(same(&out, &full), "{}: output diverges at p = {p}", alg.name());
        let mut q = 2;
        while q <= p {
            assert_eq!(
                trace.fold(q),
                full_trace.fold(q),
                "{}: folded metrics diverge at p = {p}, q = {q}",
                alg.name()
            );
            q *= 2;
        }
        p *= 2;
    }
}

/// [`folding_invariant_by`] with outputs compared by `==`.
fn folding_invariant<A>(alg: &A, n: usize, input: &A::Input)
where
    A: NobAlgorithm,
    A::Output: PartialEq,
{
    folding_invariant_by(alg, n, input, |a, b| a == b);
}

#[test]
fn mm_algorithms_agree_and_fold() {
    let mut rng = xorshift(1);
    let s = 8usize;
    let n = s * s;
    let a = Matrix::from_fn(s, |_, _| WrapU64(rng() % 997));
    let b = Matrix::from_fn(s, |_, _| WrapU64(rng() % 997));
    let input = MmInput::new(a.clone(), b.clone());
    let expect = a.mul_reference(&b);

    let (r1, _) =
        execute(&RecursiveMm::<WrapU64>::default(), n, &input, &RunOptions::default()).unwrap();
    let (r2, _) =
        execute(&SpaceEfficientMm::<WrapU64>::default(), n, &input, &RunOptions::default())
            .unwrap();
    let (r3, _) =
        execute(&CannonMm::<WrapU64>::default(), n, &input, &RunOptions::default()).unwrap();
    assert_eq!(r1, expect);
    assert_eq!(r2, expect);
    assert_eq!(r3, expect);

    folding_invariant(&RecursiveMm::<WrapU64>::default(), n, &input);
    folding_invariant(&SpaceEfficientMm::<WrapU64>::default(), n, &input);
    folding_invariant(&CannonMm::<WrapU64>::default(), n, &input);
}

#[test]
fn fft_algorithms_agree_and_fold() {
    let n = 128usize;
    let xs: Vec<Complex> = (0..n)
        .map(|t| {
            let th = 2.0 * std::f64::consts::PI * (t as f64) / n as f64;
            Complex::new(th.cos(), 0.5 * (2.0 * th).sin())
        })
        .collect();
    let want = naive_dft(&xs);
    let (got, _) = execute(&RecursiveFft::default(), n, &xs[..], &RunOptions::default()).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!(g.close_to(*w, 1e-6), "{g:?} vs {w:?}");
    }
    let (got, _) = execute(&BinaryExchangeFft, n, &xs[..], &RunOptions::default()).unwrap();
    for (g, w) in got.iter().zip(&want) {
        assert!(g.close_to(*w, 1e-6));
    }
    // `Complex` has no `==`: a folding must reproduce the spectrum exactly.
    let bitwise = |a: &Vec<Complex>, b: &Vec<Complex>| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.close_to(*y, 0.0))
    };
    folding_invariant_by(&RecursiveFft::default(), n, &xs[..], bitwise);
    folding_invariant_by(&BinaryExchangeFft, n, &xs[..], bitwise);
    // `RecursiveFft` splits `n` into `√n × √n` only when `log n` is even.
    let xs64: Vec<Complex> = xs.iter().step_by(2).copied().collect();
    folding_invariant_by(&RecursiveFft::default(), 64, &xs64[..], bitwise);
}

#[test]
fn sort_algorithms_agree_and_fold() {
    let mut rng = xorshift(2);
    let n = 256usize;
    let keys: Vec<u64> = (0..n).map(|_| rng() % 10_000).collect();
    let mut want = keys.clone();
    want.sort();
    let (got, _) =
        execute(&ColumnSort::<u64>::default(), n, &keys[..], &RunOptions::default()).unwrap();
    assert_eq!(got, want);
    let (got, _) =
        execute(&BitonicSort::<u64>::default(), n, &keys[..], &RunOptions::default()).unwrap();
    assert_eq!(got, want);
    folding_invariant(&ColumnSort::<u64>::default(), n, &keys[..]);
    folding_invariant(&BitonicSort::<u64>::default(), n, &keys[..]);
    // `n = 128` is the size whose columns fall below `2·n^{2/3}` (`r = 32`).
    folding_invariant(&ColumnSort::<u64>::default(), 128, &keys[..128]);
}

#[test]
fn stencils_agree_and_fold() {
    let n = 64usize;
    let xs: Vec<u64> = (0..n as u64).map(|x| x * 31 % 101).collect();
    let want = stencil_reference::<WrapSumOp>(&xs);
    let (got, _) =
        execute(&DiamondStencil::<WrapSumOp>::default(), n, &xs[..], &RunOptions::default())
            .unwrap();
    assert_eq!(got, want);
    let (got, _) =
        execute(&NaiveStencil::<WrapSumOp>::default(), n, &xs[..], &RunOptions::default()).unwrap();
    assert_eq!(got, want);
    folding_invariant(&DiamondStencil::<WrapSumOp>::default(), n, &xs[..]);

    let n2 = 8usize;
    let xs2: Vec<u64> = (0..(n2 * n2) as u64).map(|x| x * 7 % 53).collect();
    let want2 = stencil2_reference::<WrapSum2Op>(&xs2, n2);
    let (got2, _) =
        execute(&OctaStencil::<WrapSum2Op>::default(), n2, &xs2[..], &RunOptions::default())
            .unwrap();
    assert_eq!(got2, want2);
    let (got2, _) =
        execute(&NaiveStencil2::<WrapSum2Op>::default(), n2, &xs2[..], &RunOptions::default())
            .unwrap();
    assert_eq!(got2, want2);
    folding_invariant(&OctaStencil::<WrapSum2Op>::default(), n2, &xs2[..]);
}

#[test]
fn broadcast_and_primitives_fold() {
    fn add(a: &u64, b: &u64) -> u64 {
        a + b
    }
    // At `n = 64` the aware broadcast's 8-ary tree is complete; at 256 its
    // last level is 4-ary.
    for n in [64usize, 256] {
        folding_invariant(&ObliviousBroadcast, n, &42u64);
        folding_invariant(&AwareBroadcast { kappa: 8 }, n, &42u64);
        let xs: Vec<u64> = (0..n as u64).collect();
        folding_invariant(&TreeScan { op: add as CombineFn<u64> }, n, &xs[..]);
    }
    let xs: Vec<u64> = (0..256).collect();
    folding_invariant(&TreeReduce { op: add as CombineFn<u64> }, 256, &xs[..]);
    let fs: Vec<f64> = (0..64).map(|k| k as f64).collect();
    folding_invariant(&MatrixTranspose, 64, &fs[..]);
}
