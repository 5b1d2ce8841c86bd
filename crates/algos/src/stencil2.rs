//! The (n,2)-stencil problem (Section 4.4.2): evaluate an n×n×n space-time
//! DAG where node `(x, y, t)` depends on the nine nodes
//! `(x+δx, y+δy, t−1)`, `δx, δy ∈ {0, ±1}`.
//!
//! ## Geometry
//!
//! Rotate twice: `u = x+t`, `w = t−x+(n−1)` and `p = y+t`, `q = t−y+(n−1)`,
//! with the coupling `u+w = p+q = 2t+(n−1)`. Dependencies decrease in all
//! four rotated coordinates, so blocks defined by a 4D box grid
//! `(a, b, e, f) = (u, w, p, q) div len` admit a wavefront schedule by
//! `ph = a+b+e+f`. Non-empty blocks satisfy `|(a+b) − (e+f)| ≤ 1`; the
//! `(a+b) = (e+f)` family corresponds to the paper's *octahedra*, the
//! off-by-one families to its *tetrahedra*, and the phases `ph = 0 … 4k−4`
//! are the paper's `4k−3` interleaved stripes of at most `k²` polyhedra (we
//! run the two families of an odd phase as two sub-rounds, a ×2 superstep
//! constant). Each live block runs on the k²-way subdivision of its parent's
//! VP segment, selected by `(b mod k, f mod k)`.
//!
//! Specified on `M(n²)` with `k = 2^⌈√log n⌉`; distribution supersteps of
//! label `2ℓ·log k` start every phase and an up-propagation superstep closes
//! every block, giving (Thm. 4.13)
//!
//! ```text
//! H_2-stencil(n, p, σ) = O((n²/√p)·8^{√log n})   for σ = O(n²/p),
//! ```
//!
//! `Ω(1/8^{√log n})`-optimal against Lemma 4.10's `Ω(n²/√p)`.
//!
//! [`NaiveStencil2`] is the time-stepping baseline (`n` label-0 supersteps,
//! `H = Θ(n·(√(n²/p) + σ))`).
//!
//! The recursion is [`crate::stencil`]'s, written once for both dimensions:
//! this module states only what is two-dimensional about it — the phase
//! units `(ph, δ)` and the children each runs, the columns `(x, y)` a VP
//! holds in a block, the nine offsets, and the 9-point evaluation.
//!
//! Plan coverage: every step declares its route. [`NaiveStencil2`]'s
//! 9-point exchange is a fixed pattern, and its messages are bare cell
//! values: a VP's arrivals come by ascending source VP `x·n + y`, which is
//! the order of the neighbours' offsets `(δx, δy)`, so the inbox position
//! names the neighbour. The octahedron algorithm's `stencil2-row`,
//! `stencil2-upprop` and `stencil2-distribute` steps are static like the
//! diamond algorithm's, and built by the same enumerators: each step walks
//! its live blocks once, at build time, and lists the sends of only the VPs
//! that send; its route and its body share that table, and the store keeps
//! bare values by cell.

use crate::stencil::{
    build_recursive, plane_axis, Block, CellMsg, Col, Geo, Geometry, Rule, StencilProgram,
    StencilState,
};
use nob_machine::{Ctx, NobAlgorithm, Program, Route};
use std::collections::HashMap;

/// The 9-point local rule. `neigh[dy+1][dx+1]` is `v(x+δx, y+δy, t−1)`
/// (None outside the spatial square).
pub trait Stencil2Op: Clone + Send + Sync + 'static {
    /// Cell value type.
    type V: Clone + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static;
    /// Combine the available predecessors.
    fn apply(neigh: &[[Option<&Self::V>; 3]; 3]) -> Self::V;
}

/// Exact integer test rule: `1 + Σ present predecessors` (wrapping).
#[derive(Debug, Clone, Copy, Default)]
pub struct WrapSum2Op;

impl Stencil2Op for WrapSum2Op {
    type V = u64;
    fn apply(neigh: &[[Option<&u64>; 3]; 3]) -> u64 {
        let mut acc = 1u64;
        for row in neigh {
            for v in row.iter().flatten() {
                acc = acc.wrapping_add(**v);
            }
        }
        acc
    }
}

/// Sequential reference: returns the t = n−1 plane (row-major `x·n + y`).
pub fn stencil2_reference<O: Stencil2Op>(input: &[O::V], n: usize) -> Vec<O::V> {
    assert_eq!(input.len(), n * n);
    let mut cur = input.to_vec();
    let at = |g: &[O::V], x: i64, y: i64| -> Option<O::V> {
        (0 <= x && x < n as i64 && 0 <= y && y < n as i64)
            .then(|| g[x as usize * n + y as usize].clone())
    };
    for _t in 1..n {
        let mut next = Vec::with_capacity(n * n);
        for x in 0..n as i64 {
            for y in 0..n as i64 {
                let vals: Vec<[Option<O::V>; 3]> = (-1..=1)
                    .map(|dy| {
                        [at(&cur, x - 1, y + dy), at(&cur, x, y + dy), at(&cur, x + 1, y + dy)]
                    })
                    .collect();
                let borrowed: [[Option<&O::V>; 3]; 3] = [
                    [vals[0][0].as_ref(), vals[0][1].as_ref(), vals[0][2].as_ref()],
                    [vals[1][0].as_ref(), vals[1][1].as_ref(), vals[1][2].as_ref()],
                    [vals[2][0].as_ref(), vals[2][1].as_ref(), vals[2][2].as_ref()],
                ];
                next.push(O::apply(&borrowed));
            }
        }
        cur = next;
    }
    cur
}

// --------------------------------------------------------------------------
// Geometry.
// --------------------------------------------------------------------------

#[inline]
fn in_region(x: i64, y: i64, t: i64, n: i64) -> bool {
    0 <= x && x < n && 0 <= y && y < n && 0 <= t && t < n
}

/// Resolves the digit-sum pair `(g, h)` of a phase unit `(ph, δ)` inside a
/// parent whose global plane-sum difference is `d = (a+b) − (e+f)`.
///
/// `g + h = ph` and, because the global coupling `|sums(u,w) − sums(p,q)|
/// ≤ 1` must hold after appending the digits, `g − h = −d·k + (δ − 1)` with
/// `δ ∈ {0, 1, 2}`. Returns `None` when the unit is empty for this parent
/// (parity mismatch or out-of-range sums).
fn digit_sums(k: i64, ph: usize, delta: usize, d: i64) -> Option<(i64, i64)> {
    let gmh = -d * k + (delta as i64 - 1);
    let gph = ph as i64;
    if (gph + gmh).rem_euclid(2) != 0 {
        return None;
    }
    let g = (gph + gmh) / 2;
    let h = gph - g;
    let max = 2 * k - 2;
    ((0..=max).contains(&g) && (0..=max).contains(&h)).then_some((g, h))
}

/// The (n,2) geometry: blocks are `[[a, b], [e, f]]` in the rotated
/// `(u, w)` and `(p, q)` planes, and a level-ℓ segment is the `m × m` VPs
/// `x·m + y` of its side `m`.
impl Geometry<2> for Geo<2> {
    type Cell = Cell;
    const STEPS: [&'static str; 3] = ["stencil2-row", "stencil2-upprop", "stencil2-distribute"];
    /// The nine spatial offsets `(δx, δy)`.
    const OFFSETS: &'static [Col<2>] =
        &[[1, 1], [1, 0], [1, -1], [0, 1], [0, 0], [0, -1], [-1, 1], [-1, 0], [-1, -1]];

    /// `4k − 3` wavefront phases `ph = a + b + e + f`, each in three `δ`
    /// sub-rounds (see [`digit_sums`]: the live digit-sum split depends on
    /// the parent's plane-sum difference, which ranges over {−1, 0, +1}).
    fn phases(&self) -> usize {
        (4 * self.k - 3) * 3
    }

    fn children(
        &self,
        [[a, b], [e, f]]: Block<2>,
        q: usize,
        mut push: impl FnMut(usize, Block<2>),
    ) {
        let k = self.k as i64;
        let Some((g, h)) = digit_sums(k, q / 3, q % 3, (a + b) - (e + f)) else { return };
        for bd in 0..k {
            for fd in 0..k {
                let (ad, ed) = (g - bd, h - fd);
                if (0..k).contains(&ad) && (0..k).contains(&ed) {
                    let child = [[a * k + ad, b * k + bd], [e * k + ed, f * k + fd]];
                    push((bd * k + fd) as usize, child);
                }
            }
        }
    }

    fn columns(
        self,
        [ab, ef]: Block<2>,
        len: i64,
        grow: i64,
        r: usize,
        side: usize,
    ) -> impl Iterator<Item = Col<2>> {
        let (n, rx, ry, m) = (self.n, (r / side) as i64, (r % side) as i64, side as i64);
        plane_axis(ab, len, grow, n, rx, m)
            .flat_map(move |x| plane_axis(ef, len, grow, n, ry, m).map(move |y| [x, y]))
    }

    fn cell([x, y]: Col<2>, t: i64) -> Cell {
        (x, y, t)
    }
}

impl<O: Stencil2Op> Rule<2> for O {
    type V = O::V;
    fn eval<'a>(pred: impl Fn(Col<2>) -> Option<&'a O::V>) -> O::V {
        let mut vals: [[Option<&O::V>; 3]; 3] = Default::default();
        for dy in -1..=1i64 {
            for dx in -1..=1i64 {
                vals[(dy + 1) as usize][(dx + 1) as usize] = pred([dx, dy]);
            }
        }
        O::apply(&vals)
    }
}

// --------------------------------------------------------------------------
// State and messages.
// --------------------------------------------------------------------------

/// A cell `(x, y, t)` of the space-time cube.
type Cell = (i64, i64, i64);

/// Per-VP value store for the (n,2)-stencil: the cells this VP evaluated or
/// received, by `(x, y, t)`.
pub type Stencil2State<V> = StencilState<V, Cell>;

/// A cell value in flight, named by its coordinates `(x, y, t)`.
pub type Cell2Msg<V> = CellMsg<V, Cell>;

type OctaProgram<V> = StencilProgram<V, Cell>;

/// The recursive octahedron/tetrahedron (n,2)-stencil algorithm on `M(n²)`.
/// Supports every power of two `n ≥ 2`.
#[derive(Debug, Clone, Default)]
pub struct OctaStencil<O> {
    _marker: std::marker::PhantomData<O>,
}

impl<O: Stencil2Op> NobAlgorithm for OctaStencil<O> {
    type State = Stencil2State<O::V>;
    type Msg = Cell2Msg<O::V>;
    type Input = [O::V];
    type Output = Vec<O::V>;

    fn name(&self) -> String {
        "stencil2-octa".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n * n
    }

    fn init(&self, n: usize, input: &[O::V]) -> Vec<Stencil2State<O::V>> {
        assert!(n.is_power_of_two() && n >= 2);
        assert_eq!(input.len(), n * n);
        // VP x·n + y holds column (x, y)'s input.
        let input_cell =
            |vp: usize| HashMap::from([(((vp / n) as i64, (vp % n) as i64, 0), input[vp].clone())]);
        (0..n * n).map(|vp| StencilState { store: input_cell(vp) }).collect()
    }

    fn build(&self, n: usize) -> OctaProgram<O::V> {
        build_recursive::<2, O>(n)
    }

    fn extract(&self, n: usize, states: Vec<Stencil2State<O::V>>) -> Vec<O::V> {
        let mut out = vec![O::V::default(); n * n];
        let t_last = (n - 1) as i64;
        for st in &states {
            for (&(x, y, t), val) in &st.store {
                if t == t_last {
                    out[x as usize * n + y as usize] = val.clone();
                }
            }
        }
        out
    }
}

/// Time-stepping baseline on `M(n²)` for the (n,2)-stencil.
#[derive(Debug, Clone, Default)]
pub struct NaiveStencil2<O> {
    _marker: std::marker::PhantomData<O>,
}

/// Naive VP state: the current value of the VP's cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Naive2State<V> {
    cur: V,
}

impl<O: Stencil2Op> NobAlgorithm for NaiveStencil2<O> {
    type State = Naive2State<O::V>;
    type Msg = O::V;
    type Input = [O::V];
    type Output = Vec<O::V>;

    fn name(&self) -> String {
        "stencil2-naive".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n * n
    }

    fn init(&self, n: usize, input: &[O::V]) -> Vec<Naive2State<O::V>> {
        assert_eq!(input.len(), n * n);
        input.iter().map(|v| Naive2State { cur: v.clone() }).collect()
    }

    fn build(&self, n: usize) -> Program<Naive2State<O::V>, O::V> {
        let mut prog = Program::new(n * n, n);
        // The 8 neighbour offsets in (δx outer, δy inner) order: the route's
        // slots, and the body's sends to the neighbours that exist.
        const OFFS: [(i64, i64); 8] =
            [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)];
        for step in 0..n {
            let sends = step + 1 < n;
            prog.step_oblivious(
                0,
                "naive2-step",
                if sends { 8 } else { 0 },
                move |ctx: &Ctx, k| {
                    let (dx, dy) = OFFS[k];
                    let (x, y) = ((ctx.vp / ctx.n) as i64, (ctx.vp % ctx.n) as i64);
                    let (nx, ny) = (x + dx, y + dy);
                    if in_region(nx, ny, 0, ctx.n as i64) {
                        Route::Data((nx * ctx.n as i64 + ny) as usize)
                    } else {
                        Route::Skip
                    }
                },
                move |st: &mut Naive2State<O::V>, ctx, inbox, out| {
                    let (x, y) = ((ctx.vp / ctx.n) as i64, (ctx.vp % ctx.n) as i64);
                    if step > 0 {
                        // Arrivals by ascending source VP `x·n + y`, which is
                        // the neighbours' (δx, δy) in `OFFS` order.
                        let mut arrivals = inbox.iter();
                        let mut vals: [[Option<&O::V>; 3]; 3] = Default::default();
                        vals[1][1] = Some(&st.cur);
                        for (dx, dy) in OFFS {
                            if in_region(x + dx, y + dy, 0, ctx.n as i64) {
                                vals[(dy + 1) as usize][(dx + 1) as usize] = arrivals.next();
                            }
                        }
                        st.cur = O::apply(&vals);
                    }
                    if sends {
                        for (dx, dy) in OFFS {
                            if in_region(x + dx, y + dy, 0, ctx.n as i64) {
                                out.send(st.cur.clone());
                            }
                        }
                    }
                },
            );
        }
        prog
    }

    fn extract(&self, _n: usize, states: Vec<Naive2State<O::V>>) -> Vec<O::V> {
        states.into_iter().map(|s| s.cur).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::folding::executed_folding;
    use nob_core::lower_bounds;
    use nob_machine::{execute, RunOptions};

    fn input(n: usize) -> Vec<u64> {
        (0..(n * n) as u64).map(|x| x.wrapping_mul(0x9e37_79b9) % 911).collect()
    }

    #[test]
    fn naive2_matches_reference() {
        for &n in &[2usize, 4, 8, 16] {
            let xs = input(n);
            let want = stencil2_reference::<WrapSum2Op>(&xs, n);
            let alg = NaiveStencil2::<WrapSum2Op>::default();
            let (got, _) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn octa_matches_reference() {
        for &n in &[4usize, 8, 16] {
            let xs = input(n);
            let want = stencil2_reference::<WrapSum2Op>(&xs, n);
            let alg = OctaStencil::<WrapSum2Op>::default();
            let (got, _) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn octa_folding_is_consistent() {
        let n = 8;
        let xs = input(n);
        let alg = OctaStencil::<WrapSum2Op>::default();
        let (full, full_trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
        for p in [2usize, 4, 16, 64] {
            let (out, trace) = executed_folding(&alg, n, &xs[..], p);
            assert_eq!(out, full);
            assert_eq!(trace.fold(p), full_trace.fold(p));
        }
    }

    #[test]
    fn communication_complexity_matches_theorem_4_13() {
        // H(n, p, 0) = O((n²/√p)·8^√log n): measured/theory bounded.
        for (n, messages) in [(8usize, 5_088), (16, 38_516)] {
            let xs = input(n);
            let alg = OctaStencil::<WrapSum2Op>::default();
            let (_, trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            // Up-propagation ships only its block's own halo: re-shipping
            // the stale copies of earlier blocks sent 7 753 and 191 093.
            assert_eq!(trace.total_messages(), messages, "n={n}");
            for p in [4usize, 16] {
                let measured = trace.comm_complexity(p, 0.0);
                let theory = lower_bounds::upper::stencil2(n, p, 0.0);
                let ratio = measured / theory;
                // At most 1.64 on this grid (n = 8, p = 16).
                assert!(ratio < 2.0, "n={n} p={p}: measured/theory = {ratio}");
            }
            // Against Lemma 4.10's Ω(n²/√p + σ) the factor carries Thm
            // 4.13's 8^√log n (64 at n = 16) and the σ term of the
            // phases' supersteps: it peaks at 1106 (n = 16, p = 64, σ = 16)
            // on this grid; without σ it stays below 100.
            for p in [4usize, 16, 64] {
                for sigma in [0.0, 16.0] {
                    let ratio =
                        trace.comm_complexity(p, sigma) / lower_bounds::stencil(n, 2, p, sigma);
                    assert!(ratio < 1200.0, "n={n} p={p} sigma={sigma}: measured/LB = {ratio}");
                }
            }
        }
    }
}
