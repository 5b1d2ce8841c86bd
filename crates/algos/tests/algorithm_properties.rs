//! Property tests over the Section-4 algorithms: correctness on randomized
//! inputs across sizes, plus trace-level claims (dummy messages help
//! wiseness, degrees stay within the theorems' shapes).

use nob_algos::broadcast::{AwareBroadcast, ObliviousBroadcast};
use nob_algos::fft::{naive_dft, BinaryExchangeFft, Complex, RecursiveFft};
use nob_algos::mm::cannon::CannonMm;
use nob_algos::mm::space::SpaceEfficientMm;
use nob_algos::mm::standard::RecursiveMm;
use nob_algos::mm::MmInput;
use nob_algos::primitives::{CombineFn, MatrixTranspose, TreeReduce, TreeScan};
use nob_algos::semiring::{Matrix, MinPlus, Semiring, WrapU64};
use nob_algos::sort::{columnsort_seq, BitonicSort, ColumnSort};
use nob_algos::stencil::{stencil_reference, DiamondStencil, NaiveStencil, WrapSumOp};
use nob_algos::stencil2::{NaiveStencil2, OctaStencil, WrapSum2Op};
use nob_machine::{execute, NobAlgorithm, RunOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recursive_mm_multiplies_any_matrices(vals in proptest::collection::vec(any::<u64>(), 128)) {
        let s = 8usize;
        let a = Matrix::from_rows(s, vals[..64].iter().map(|&x| WrapU64(x)).collect());
        let b = Matrix::from_rows(s, vals[64..].iter().map(|&x| WrapU64(x)).collect());
        let input = MmInput::new(a.clone(), b.clone());
        let (got, _) =
            execute(&RecursiveMm::<WrapU64>::default(), 64, &input, &RunOptions::default())
                .unwrap();
        prop_assert_eq!(got, a.mul_reference(&b));
    }

    #[test]
    fn space_and_cannon_mm_agree_with_reference(
        lg_side in 1u32..4,
        seed in any::<u64>(),
    ) {
        let s = 1usize << lg_side;
        let n = s * s;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let a = Matrix::from_fn(s, |_, _| WrapU64(next()));
        let b = Matrix::from_fn(s, |_, _| WrapU64(next()));
        let input = MmInput::new(a.clone(), b.clone());
        let expect = a.mul_reference(&b);
        let (got, _) =
            execute(&SpaceEfficientMm::<WrapU64>::default(), n, &input, &RunOptions::default())
                .unwrap();
        prop_assert_eq!(&got, &expect);
        let (got, _) =
            execute(&CannonMm::<WrapU64>::default(), n, &input, &RunOptions::default()).unwrap();
        prop_assert_eq!(&got, &expect);
    }

    #[test]
    fn tropical_mm_is_min_plus(seed in any::<u64>()) {
        let s = 8usize;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let a = Matrix::from_fn(s, |i, j| {
            if i == j {
                MinPlus::one()
            } else if next() % 3 == 0 {
                MinPlus::zero()
            } else {
                MinPlus((next() % 50) as f64)
            }
        });
        let input = MmInput::new(a.clone(), a.clone());
        let (got, _) =
            execute(&RecursiveMm::<MinPlus>::default(), 64, &input, &RunOptions::default())
                .unwrap();
        prop_assert!(got.close_to(&a.mul_reference(&a)));
    }

    #[test]
    fn ffts_match_naive_dft_on_random_signals(
        lg in 1u32..9,
        seed in any::<u64>(),
    ) {
        let n = 1usize << lg;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        };
        let xs: Vec<Complex> = (0..n).map(|_| Complex::new(next(), next())).collect();
        let want = naive_dft(&xs);
        let eps = 1e-9 * (n as f64) * 8.0;
        let (got, _) =
            execute(&RecursiveFft::default(), n, &xs[..], &RunOptions::default()).unwrap();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(g.close_to(*w, eps), "{:?} vs {:?}", g, w);
        }
        let (got, _) = execute(&BinaryExchangeFft, n, &xs[..], &RunOptions::default()).unwrap();
        for (g, w) in got.iter().zip(&want) {
            prop_assert!(g.close_to(*w, eps));
        }
    }

    #[test]
    fn sorts_agree_with_std_on_random_keys(
        lg in 1u32..10,
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
        // Duplicate-heavy universes stress the 0-1-principle corners.
        let keys: Vec<u64> =
            (0..n).map(|_| if small_universe { next() % 4 } else { next() }).collect();
        let mut want = keys.clone();
        want.sort();
        let (got, _) =
            execute(&ColumnSort::<u64>::default(), n, &keys[..], &RunOptions::default()).unwrap();
        prop_assert_eq!(&got, &want);
        let (got, _) =
            execute(&BitonicSort::<u64>::default(), n, &keys[..], &RunOptions::default()).unwrap();
        prop_assert_eq!(&got, &want);
        let mut seq = keys.clone();
        columnsort_seq(&mut seq);
        prop_assert_eq!(&seq, &want);
    }

    #[test]
    fn diamond_stencil_matches_reference_on_random_inputs(
        lg in 2u32..7,
        seed in any::<u64>(),
    ) {
        let n = 1usize << lg;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let xs: Vec<u64> = (0..n).map(|_| next() % 1_000_000).collect();
        let want = stencil_reference::<WrapSumOp>(&xs);
        let (got, _) =
            execute(&DiamondStencil::<WrapSumOp>::default(), n, &xs[..], &RunOptions::default())
                .unwrap();
        prop_assert_eq!(got, want);
    }

    /// The paper's dummy messages are what lift wiseness to Θ(1): with them
    /// α(p = v) is at least 1/16 (measured: MM 0.375, space-efficient MM
    /// 0.5, FFT 0.75, Columnsort 0.070), and without them strictly lower.
    #[test]
    fn dummies_do_not_hurt_wiseness(seed in any::<u64>()) {
        let s = 8usize;
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let input = MmInput::new(
            Matrix::from_fn(s, |_, _| WrapU64(next())),
            Matrix::from_fn(s, |_, _| WrapU64(next())),
        );
        let signal: Vec<Complex> =
            (0..256).map(|_| Complex::new(next() as f64, next() as f64)).collect();
        let keys: Vec<u64> = (0..256).map(|_| next()).collect();
        let opts = RunOptions::default();
        let alpha = |wise: bool| {
            let traces = [
                execute(&RecursiveMm::<WrapU64>::new(wise), 64, &input, &opts).unwrap().1,
                execute(&SpaceEfficientMm::<WrapU64>::new(wise), 64, &input, &opts).unwrap().1,
                execute(&RecursiveFft::new(wise), 256, &signal[..], &opts).unwrap().1,
                execute(&ColumnSort::<u64>::new(wise), 256, &keys[..], &opts).unwrap().1,
            ];
            traces.map(|t| nob_core::wiseness::alpha_max(&t, t.v()).alpha)
        };
        let names = ["mm", "mm-space", "fft", "columnsort"];
        for (name, (with, without)) in names.iter().zip(alpha(true).into_iter().zip(alpha(false))) {
            prop_assert!(with >= 1.0 / 16.0, "{}: alpha = {} with dummies", name, with);
            prop_assert!(without < with, "{}: alpha {} without, {} with", name, without, with);
        }
    }
}

/// Every algorithm is static *and says so*: each of its steps declares its
/// route, so its program is fully planned when built, with no capture.
#[test]
fn every_algorithm_is_declared() {
    fn declared<A: NobAlgorithm>(alg: &A, sizes: [usize; 2]) {
        for n in sizes {
            let prog = alg.build(n);
            assert_eq!(prog.planned_steps(), prog.steps().len(), "{} at n = {n}", alg.name());
        }
    }
    fn add(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }
    for wise in [false, true] {
        declared(&RecursiveMm::<WrapU64>::new(wise), [64, 4096]);
        declared(&SpaceEfficientMm::<WrapU64>::new(wise), [16, 256]);
        declared(&RecursiveFft::new(wise), [16, 256]);
        declared(&ColumnSort::<u64>::new(wise), [64, 512]);
    }
    declared(&CannonMm::<WrapU64>::default(), [16, 64]);
    declared(&BinaryExchangeFft, [16, 256]);
    declared(&BitonicSort::<u64>::default(), [16, 64]);
    declared(&ObliviousBroadcast, [16, 64]);
    declared(&AwareBroadcast { kappa: 4 }, [16, 64]);
    declared(&TreeReduce { op: add as CombineFn<u64> }, [8, 64]);
    declared(&TreeScan { op: add as CombineFn<u64> }, [8, 64]);
    declared(&MatrixTranspose, [16, 64]);
    declared(&NaiveStencil::<WrapSumOp>::default(), [8, 32]);
    declared(&NaiveStencil2::<WrapSum2Op>::default(), [4, 8]);
    declared(&DiamondStencil::<WrapSumOp>::default(), [16, 64]);
    declared(&OctaStencil::<WrapSum2Op>::default(), [4, 8]);
}
