//! Basic network-oblivious building blocks: tree reduction, prefix sums,
//! and matrix transposition.
//!
//! These are the primitives the paper leans on implicitly: prefix-like
//! computations drive the ascend–descend protocol of Section 5 (Lemma 5.1
//! charges `O(log p)` supersteps of constant degree for them — exactly the
//! cost of [`TreeScan`]), and transposition is the data movement at the heart
//! of the FFT and sorting algorithms. They double as small, readable examples
//! of the programming model.
//!
//! Every step declares its route ([`Program::step_oblivious`]). A tree step
//! has one sender per cluster of its level, so it is stated for one cluster
//! ([`InCluster`]). The one exception is the scan's down-sweep, whose
//! senders are the right edges of every block but the first; its route is
//! a closure over the VP index. Each VP receives at most one message per
//! step, so no message needs to say where it came from.

use crate::common::silent;
use nob_machine::{Ctx, InCluster, NobAlgorithm, Program, Route};

/// A binary associative combiner used by [`TreeReduce`] and [`TreeScan`].
/// Function pointers keep the algorithm objects cheap to clone and the
/// supersteps `Send + Sync`.
pub type CombineFn<T> = fn(&T, &T) -> T;

/// Tree reduction to VP 0: `log v` supersteps of degree 1, one per cluster
/// level, from the innermost (label `log v − 1`) outward (label 0).
/// `H(n, p, σ) = Θ(log p·(1 + σ))`.
#[derive(Debug, Clone)]
pub struct TreeReduce<T> {
    /// The associative combiner.
    pub op: CombineFn<T>,
}

impl<T: Clone + Send + Sync + Default + 'static> NobAlgorithm for TreeReduce<T> {
    type State = T;
    type Msg = T;
    type Input = [T];
    type Output = T;

    fn name(&self) -> String {
        "tree-reduce".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[T]) -> Vec<T> {
        assert_machine(n);
        assert_eq!(input.len(), n);
        input.to_vec()
    }

    fn build(&self, n: usize) -> Program<T, T> {
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        let op = self.op;
        // Round t combines blocks of size 2^t, the step's clusters: the
        // right half-leader sends its partial to the block leader. Labels
        // walk outward with t.
        for t in 1..=log_v {
            let half = 1usize << (t - 1);
            let route = one_sender(2 * half, half, 0);
            prog.step_oblivious(log_v - t, "reduce-up", 1, route, move |st, ctx, inbox, out| {
                for m in inbox.drain(..) {
                    *st = op(st, &m);
                }
                if ctx.vp % (half * 2) == half {
                    out.send(st.clone());
                }
            });
        }
        prog.step_oblivious(0, "reduce-finalize", 0, silent, move |st, _, inbox, _| {
            for m in inbox.drain(..) {
                *st = op(st, &m);
            }
        });
        prog
    }

    fn extract(&self, _n: usize, states: Vec<T>) -> T {
        states.into_iter().next().expect("non-empty machine")
    }
}

/// Scan VP state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanState<T> {
    /// The VP's original element.
    own: T,
    /// Running subtree total (right-edge convention: after up-round t, the
    /// VP at the right edge of a 2^t block holds that block's total).
    subtree: T,
    /// Left-half totals received on the way up, popped on the way down.
    lefts: Vec<T>,
    /// Exclusive prefix (None = empty prefix / identity).
    prefix: Option<T>,
}

/// Work-efficient inclusive prefix sums (Blelloch two-sweep scan): an
/// up-sweep and a down-sweep of `log v` degree-1 supersteps each, labels
/// walking outward and back. `H(n, p, σ) = Θ(log p·(1 + σ))` — the cost
/// model behind the prefix steps of the ascend–descend protocol.
#[derive(Debug, Clone)]
pub struct TreeScan<T> {
    /// The associative combiner.
    pub op: CombineFn<T>,
}

impl<T: Clone + Send + Sync + Default + 'static> NobAlgorithm for TreeScan<T> {
    type State = ScanState<T>;
    type Msg = T;
    type Input = [T];
    type Output = Vec<T>;

    fn name(&self) -> String {
        "tree-scan".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[T]) -> Vec<ScanState<T>> {
        assert_machine(n);
        assert_eq!(input.len(), n);
        input
            .iter()
            .map(|x| ScanState {
                own: x.clone(),
                subtree: x.clone(),
                lefts: Vec::new(),
                prefix: None,
            })
            .collect()
    }

    fn build(&self, n: usize) -> Program<ScanState<T>, T> {
        let mut prog: Program<ScanState<T>, T> = Program::new(n, n);
        let log_v = prog.log_v();
        let op = self.op;

        // Up-sweep: round t, the right edge of each left half (r ≡ 2^{t−1}−1
        // mod 2^t) sends its subtree total to the right edge of its 2^t
        // block, the step's cluster.
        for t in 1..=log_v {
            let half = 1usize << (t - 1);
            let route = one_sender(2 * half, half - 1, 2 * half - 1);
            prog.step_oblivious(log_v - t, "scan-up", 1, route, move |st, ctx, inbox, out| {
                for m in inbox.drain(..) {
                    st.lefts.push(m.clone());
                    st.subtree = op(&m, &st.subtree);
                }
                if ctx.vp % (half * 2) == half - 1 {
                    out.send(st.subtree.clone());
                }
            });
        }

        // Down-sweep: round t, the right edge of each 2^t block knows its
        // block's exclusive prefix; it forwards that prefix to its left
        // child's right edge and absorbs the left-half total itself. Only
        // the first block's prefix is empty, so the senders are the right
        // edges of every block but the first: the route differs from one
        // cluster to the next, so it is stated per VP.
        for t in (1..=log_v).rev() {
            let half = 1usize << (t - 1);
            let block = half * 2;
            let is_turnaround = t == log_v;
            let route = move |ctx: &Ctx, _| {
                if ctx.vp % block == block - 1 && ctx.vp >= block {
                    Route::Data(ctx.vp - half)
                } else {
                    Route::End
                }
            };
            prog.step_oblivious(log_v - t, "scan-down", 1, route, move |st, ctx, inbox, out| {
                if is_turnaround {
                    // Last up-sweep message arrives here (root only).
                    for m in inbox.drain(..) {
                        st.lefts.push(m.clone());
                        st.subtree = op(&m, &st.subtree);
                    }
                } else if let Some(m) = inbox.pop() {
                    st.prefix = Some(m);
                }
                if ctx.vp % block == block - 1 {
                    let left_sum = st.lefts.pop().expect("up-sweep left-half total");
                    if let Some(p) = &st.prefix {
                        out.send(p.clone());
                    }
                    st.prefix = Some(match &st.prefix {
                        None => left_sum,
                        Some(p) => op(p, &left_sum),
                    });
                }
            });
        }
        prog.step_oblivious(log_v - 1, "scan-finalize", 0, silent, |st, _, inbox, _| {
            if let Some(m) = inbox.pop() {
                st.prefix = Some(m);
            }
        });
        prog
    }

    fn extract(&self, _n: usize, states: Vec<ScanState<T>>) -> Vec<T> {
        let op = self.op;
        states
            .into_iter()
            .map(|st| match st.prefix {
                None => st.own,
                Some(p) => op(&p, &st.own),
            })
            .collect()
    }
}

/// Network-oblivious √n×√n matrix transposition on `M(n)`: a single
/// 0-superstep permutation (plus the consuming barrier) — the pattern used
/// inside the FFT and Columnsort algorithms, exposed standalone.
#[derive(Debug, Clone, Default)]
pub struct MatrixTranspose;

impl NobAlgorithm for MatrixTranspose {
    type State = f64;
    type Msg = f64;
    type Input = [f64];
    type Output = Vec<f64>;

    fn name(&self) -> String {
        "matrix-transpose".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[f64]) -> Vec<f64> {
        assert_square(n);
        assert_machine(n);
        assert_eq!(input.len(), n);
        input.to_vec()
    }

    fn build(&self, n: usize) -> Program<f64, f64> {
        assert_square(n);
        let s = 1usize << (n.trailing_zeros() / 2);
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        let route = move |ctx: &Ctx, _| Route::Data((ctx.vp % s) * s + ctx.vp / s);
        prog.step_oblivious(0, "transpose-send", 1, route, |st, _, _, out| out.send(*st));
        prog.step_oblivious(log_v - 1, "transpose-recv", 0, silent, |st, _, inbox, _| {
            *st = inbox.pop().expect("transposed entry");
        });
        prog
    }

    fn extract(&self, _n: usize, states: Vec<f64>) -> Vec<f64> {
        states
    }
}

/// The route of a tree step on clusters of `c` VPs: the VP at offset
/// `from` of each cluster sends one payload to the one at offset `to`.
fn one_sender(c: usize, from: usize, to: usize) -> InCluster<impl Fn(usize, usize) -> Route> {
    InCluster::new(c, 1, 0, move |off, _| if off == from { Route::Data(to) } else { Route::End })
}

/// Panics unless `v` VPs make a machine, as `Program::new` does (with its
/// message): so `init` rejects every size `build` does.
fn assert_machine(v: usize) {
    assert!(v.is_power_of_two() && v >= 2, "v = {v} must be a power of two >= 2");
}

/// Panics unless `n` is an even power of two, so that the `n` entries form
/// a square matrix: on any other size the transpose is no permutation.
fn assert_square(n: usize) {
    assert!(
        n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2),
        "n must be an even power of 2"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::folding::executed_folding;
    use nob_machine::{execute, RunOptions};

    fn add(a: &u64, b: &u64) -> u64 {
        a + b
    }

    fn maxi(a: &u64, b: &u64) -> u64 {
        *a.max(b)
    }

    #[test]
    fn reduce_sums_everything() {
        let xs: Vec<u64> = (1..=64).collect();
        let alg = TreeReduce { op: add as CombineFn<u64> };
        let (total, trace) = execute(&alg, 64, &xs[..], &RunOptions::default()).unwrap();
        assert_eq!(total, 64 * 65 / 2);
        assert_eq!(trace.superstep_count(), 7);
        assert_eq!(trace.max_degree(), 1);
    }

    #[test]
    fn reduce_with_max() {
        let xs: Vec<u64> = (0..32).map(|i| (i * 37) % 101).collect();
        let alg = TreeReduce { op: maxi as CombineFn<u64> };
        let (m, _) = execute(&alg, 32, &xs[..], &RunOptions::default()).unwrap();
        assert_eq!(m, *xs.iter().max().unwrap());
    }

    #[test]
    fn scan_computes_inclusive_prefix_sums() {
        for lg in 1..=8 {
            let n = 1usize << lg;
            let xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
            let alg = TreeScan { op: add as CombineFn<u64> };
            let (got, trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            let mut want = Vec::new();
            let mut acc = 0;
            for &x in &xs {
                acc += x;
                want.push(acc);
            }
            assert_eq!(got, want, "n = {n}");
            assert_eq!(trace.max_degree(), 1);
            assert_eq!(trace.superstep_count(), 2 * lg + 1);
        }
    }

    #[test]
    fn scan_folding_is_consistent() {
        let n = 64;
        let xs: Vec<u64> = (0..n as u64).map(|i| i ^ 21).collect();
        let alg = TreeScan { op: add as CombineFn<u64> };
        let (full, full_trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
        for p in [2usize, 8, 32] {
            let (out, trace) = executed_folding(&alg, n, &xs[..], p);
            assert_eq!(out, full);
            assert_eq!(trace.fold(p), full_trace.fold(p));
        }
    }

    #[test]
    fn scan_cost_is_logarithmic() {
        let n = 256;
        let xs = vec![1u64; n];
        let alg = TreeScan { op: add as CombineFn<u64> };
        let (_, trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
        // H(n, p, σ) = Θ(log p (1 + σ)): at σ = 0 it is at most 2 log p + 1.
        for p in [2usize, 16, 256] {
            let h = trace.comm_complexity(p, 0.0);
            let lp = nob_core::model::paper_log2(p as f64);
            assert!(h <= 2.0 * lp + 1.0, "H({p}) = {h}");
        }
    }

    #[test]
    #[should_panic(expected = "n must be an even power of 2")]
    fn transpose_build_rejects_a_size_init_rejects() {
        // At n = 8 the "transpose" would send two entries each to VPs 2
        // and 3 and none to VPs 6 and 7.
        MatrixTranspose.build(8);
    }

    #[test]
    #[should_panic(expected = "v = 1 must be a power of two >= 2")]
    fn transpose_init_rejects_a_size_build_rejects() {
        // 1 = 2^0 is an even power of two, but no machine.
        MatrixTranspose.init(1, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "v = 6 must be a power of two >= 2")]
    fn reduce_init_rejects_a_size_build_rejects() {
        TreeReduce { op: add as CombineFn<u64> }.init(6, &[0; 6]);
    }

    #[test]
    #[should_panic(expected = "v = 1 must be a power of two >= 2")]
    fn scan_init_rejects_a_size_build_rejects() {
        TreeScan { op: add as CombineFn<u64> }.init(1, &[0]);
    }

    #[test]
    fn transpose_transposes() {
        let n = 64;
        let s = 8;
        let xs: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let (got, _) = execute(&MatrixTranspose, n, &xs[..], &RunOptions::default()).unwrap();
        for i in 0..s {
            for j in 0..s {
                assert_eq!(got[i * s + j], xs[j * s + i]);
            }
        }
    }
}
