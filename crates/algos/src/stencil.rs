//! The (n,1)-stencil problem (Section 4.4.1): evaluate an n×n space-time DAG
//! where node `(x, t)` depends on `(x−1, t−1)`, `(x, t−1)`, `(x+1, t−1)`.
//!
//! ## Geometry
//!
//! In rotated coordinates `u = x + t`, `w = t − x + (n−1)` the dependencies
//! point in the direction of increasing `u` and `w` (`(u−2, w)`, `(u−1, w−1)`,
//! `(u, w−2)`), and a *diamond* of the paper becomes an axis-aligned box. The
//! whole n×n problem square is a diamond in `(u, w)` — the paper's 5-piece
//! partition corresponds to covering it with boxes; we run one uniform
//! recursive box decomposition over the bounding box of side `2n`, skipping
//! empty blocks (the paper's "dummy diamonds" keep idle submachines in
//! lockstep; our SPMD closures simply no-op).
//!
//! This module also holds the recursive schedule of [`crate::stencil2`]'s
//! (n,2) algorithm, which rotates each spatial axis the same way: the
//! schedule is written once over `D` spatial axes (`Geo<D>`, a block is one
//! `(a, b)` box index pair per axis). A private `Geometry` trait, implemented
//! for `Geo<1>` here and `Geo<2>` there, states only what differs between the
//! dimensions: the step names, the neighbour offsets, the phase units of a
//! recursive block and the children each runs, the columns a VP holds in a
//! block, and the cell key; a private `Rule` states how one cell is
//! evaluated from its predecessors. Box spans, liveness, owners, the three
//! send enumerators and the recursion are shared.
//!
//! ## The algorithm (Thm. 4.11)
//!
//! With `k = 2^⌈√log n⌉`, each level-ℓ box splits into a k×k grid of child
//! boxes evaluated in `2k−1` wavefront phases (the stripes of Figure 1);
//! phase `q` runs the children with `a + b = q` in parallel, child `(a, b)`
//! on the sub-segment selected by `b`. Each phase opens with a distribution
//! superstep of label `ℓ·log k` delivering the child's input halo (degree
//! `O(1)` per VP), and every block closes with an up-propagation superstep
//! returning its output halo to the parent's owners. Blocks whose segment is
//! smaller than `k` are evaluated time-row by time-row (`2m` supersteps of
//! the segment's label, degree `O(1)`), single-VP blocks locally. This gives
//! `H_1-stencil(n, p, σ) = O(n·4^{√log n})` for `σ = O(n/p)` —
//! `Ω(1/4^{√log n})`-optimal against Lemma 4.10's `Ω(n)`.
//!
//! [`NaiveStencil`] is the time-stepping baseline: `n−1` label-0 supersteps
//! of degree O(1): `H = Θ(n·(1 + σ))` — bandwidth-optimal but paying the
//! full latency `σ` *per time step*; the diamond algorithm wins exactly when
//! latency dominates (Thm 4.11).
//!
//! Cell values are generic over a [`StencilOp`]; the per-VP store keeps every
//! computed cell (a simulator convenience — the paper's algorithm retains
//! only O(1) halo values per VP; metrics are unaffected).
//!
//! Plan coverage: every step declares its route. [`NaiveStencil`]'s halo
//! exchange is a fixed shift, and its messages are bare cell values: a
//! VP's arrivals come by ascending source VP, its left neighbour's value
//! before its right one's, so the inbox position names the neighbour. The
//! diamond algorithm is static too: which cells a VP ships in
//! `stencil-row`, `stencil-upprop` and `stencil-distribute`, and to whom,
//! follows from the box geometry and `n` alone. The recursion carries the
//! live blocks of each level under the current phase trail, as
//! `(segment, block)` pairs: a phase's children are found once per parent
//! segment, from its block and the phase, and an idle segment never
//! appears. Each step lists its sends once, at build time, by walking its
//! live blocks and their VPs' columns, into a table that holds only the VPs
//! that send; its route finds a VP's destinations there by binary search,
//! and its body the cells. A cell's holder is fixed by the geometry as well
//! — the owner of its column in the segment of the block that evaluates or
//! receives it — so the store keeps bare values, and each message names the
//! cell it carries.

use crate::common::Shipments;
use nob_machine::{Ctx, NobAlgorithm, Program, Route};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// The local rule: combine the three predecessors (absent at the spatial
/// boundary) into the new cell value.
pub trait StencilOp: Clone + Send + Sync + 'static {
    /// Cell value type.
    type V: Clone + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static;
    /// `v(x,t) = apply(v(x−1,t−1), v(x,t−1), v(x+1,t−1))`.
    fn apply(l: Option<&Self::V>, c: Option<&Self::V>, r: Option<&Self::V>) -> Self::V;
}

/// Exact integer test rule: `1 + Σ present predecessors` (wrapping).
#[derive(Debug, Clone, Copy, Default)]
pub struct WrapSumOp;

impl StencilOp for WrapSumOp {
    type V = u64;
    fn apply(l: Option<&u64>, c: Option<&u64>, r: Option<&u64>) -> u64 {
        let mut acc = 1u64;
        for v in [l, c, r].into_iter().flatten() {
            acc = acc.wrapping_add(*v);
        }
        acc
    }
}

/// Jacobi-style averaging (1D heat equation step).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeatOp;

impl StencilOp for HeatOp {
    type V = f64;
    fn apply(l: Option<&f64>, c: Option<&f64>, r: Option<&f64>) -> f64 {
        let vals: Vec<f64> = [l, c, r].into_iter().flatten().copied().collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Sequential reference evaluation: returns the last time row.
pub fn stencil_reference<O: StencilOp>(input: &[O::V]) -> Vec<O::V> {
    let n = input.len();
    let mut cur = input.to_vec();
    for _t in 1..n {
        let mut next = Vec::with_capacity(n);
        for x in 0..n {
            let l = if x > 0 { Some(&cur[x - 1]) } else { None };
            let r = if x + 1 < n { Some(&cur[x + 1]) } else { None };
            next.push(O::apply(l, Some(&cur[x]), r));
        }
        cur = next;
    }
    cur
}

// --------------------------------------------------------------------------
// The recursive box decomposition, over D spatial axes.
// --------------------------------------------------------------------------

/// The half-open `t`-range of spatial coordinate `xy` inside the rotated
/// box `[a·len, (a+1)·len) × [b·len, (b+1)·len)` of `(xy + t, t − xy + n − 1)`.
#[inline]
fn plane_span(xy: i64, [a, b]: [i64; 2], len: i64, n: i64) -> (i64, i64) {
    let c = xy - (n - 1);
    ((a * len - xy).max(b * len + c), ((a + 1) * len - xy).min((b + 1) * len + c))
}

/// The spatial coordinates `xy ∈ [0, n)` with `xy ≡ r (mod m)` whose
/// [`plane_span`] in the box — grown by `grow` below along both rotated
/// axes — may be non-empty (a superset: callers test the span).
pub(crate) fn plane_axis(
    [a, b]: [i64; 2],
    len: i64,
    grow: i64,
    n: i64,
    r: i64,
    m: i64,
) -> impl Iterator<Item = i64> {
    // xy = (u − w + n − 1) / 2 over the grown box's u and w ranges.
    let lo = ((a - b - 1) * len - grow + n).div_euclid(2).max(0);
    let hi = ((a + 1 - b) * len + grow + n).div_euclid(2).min(n - 1);
    (lo + (r - lo).rem_euclid(m)..=hi).step_by(m as usize)
}

/// Calls `f` once per distinct destination of `dsts` other than `skip`, in
/// first-seen order.
fn distinct(dsts: impl Iterator<Item = usize>, skip: usize, mut f: impl FnMut(usize)) {
    let mut seen = Vec::with_capacity(9);
    for dst in dsts {
        if dst != skip && !seen.contains(&dst) {
            seen.push(dst);
            f(dst);
        }
    }
}

/// The `A` digit of the phase-`q` sub-diamond in column `b` of a recursive
/// block's `k × k` grid, or `None` when phase `q` has none there. Phase `q`
/// is the anti-diagonal `a + b = q` (Figure 1's horizontal stripe), so the
/// `2k − 1` phases partition the grid.
#[inline]
fn phase_digit(q: usize, b: i64, k: i64) -> Option<i64> {
    let a = q as i64 - b;
    (0..k).contains(&a).then_some(a)
}

/// A level-ℓ block: its rotated box indices `[a, b]` along each spatial
/// axis (`(u, w) div len` for `x`, `(p, q) div len` for `y`).
pub(crate) type Block<const D: usize> = [[i64; 2]; D];

/// A spatial column, or an offset between two.
pub(crate) type Col<const D: usize> = [i64; D];

/// The live blocks of one level under a phase trail, as `(segment, block)`
/// pairs by ascending segment: the level-ℓ segment `s` is VPs
/// `[s·m^D, (s+1)·m^D)` of side `m = n / k^ℓ`.
type Live<const D: usize> = Vec<(usize, Block<D>)>;

/// `col + off`.
#[inline]
fn shift<const D: usize>(mut col: Col<D>, off: &Col<D>) -> Col<D> {
    for i in 0..D {
        col[i] += off[i];
    }
    col
}

/// Static per-instance geometry of the `D`-dimensional stencil on `M(n^D)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geo<const D: usize> {
    pub(crate) n: i64,
    /// The decomposition arity `k = 2^⌈√log n⌉`.
    pub(crate) k: usize,
    log_k: u32,
    /// Levels until the segment side `m_ℓ = n/k^ℓ` drops below `k`.
    levels: u32,
}

/// What differs between the stencil's dimensions; everything else of the
/// recursive schedule is written once over `D` axes.
pub(crate) trait Geometry<const D: usize> {
    /// The store key of a cell.
    type Cell: Copy + Eq + Hash + Send + Sync + 'static;
    /// The step names: row, up-propagation, distribution.
    const STEPS: [&'static str; 3];
    /// The spatial offsets from a cell to its successors, which are also
    /// its neighbours and itself, in send order.
    const OFFSETS: &'static [Col<D>];
    /// The number of phase units of a recursive block.
    fn phases(&self) -> usize;
    /// Calls `push(digit, child)` for each child of level-ℓ block `blk`
    /// that phase unit `q` runs, by ascending digit: the child runs on the
    /// `digit`-th of the `k^D` sub-segments of `blk`'s segment. Liveness is
    /// the caller's test.
    fn children(&self, blk: Block<D>, q: usize, push: impl FnMut(usize, Block<D>));
    /// The columns at position `r` of segments of side `side` that may meet
    /// block `blk`'s box of side `len` grown by `grow` below (a superset,
    /// ascending).
    fn columns(
        self,
        blk: Block<D>,
        len: i64,
        grow: i64,
        r: usize,
        side: usize,
    ) -> impl Iterator<Item = Col<D>>;
    /// The key of cell `(col, t)`.
    fn cell(col: Col<D>, t: i64) -> Self::Cell;
}

/// A cell rule of the `D`-dimensional stencil: how one cell is evaluated
/// from its predecessors.
pub(crate) trait Rule<const D: usize>: Send + Sync + 'static {
    /// Cell value type.
    type V: Clone + Send + Sync + 'static;
    /// The new cell value; `pred(δ)` is the predecessor at spatial offset
    /// `δ`, `None` outside the square.
    fn eval<'a>(pred: impl Fn(Col<D>) -> Option<&'a Self::V>) -> Self::V;
}

impl<O: StencilOp> Rule<1> for O {
    type V = O::V;
    fn eval<'a>(pred: impl Fn(Col<1>) -> Option<&'a O::V>) -> O::V {
        O::apply(pred([-1]), pred([0]), pred([1]))
    }
}

impl<const D: usize> Geo<D> {
    fn new(n: usize) -> Self {
        let log_n = n.trailing_zeros().max(1);
        let k = 1usize << (log_n as f64).sqrt().ceil() as u32;
        let mut levels = 0;
        let mut m = n;
        while m >= k && m > 1 {
            levels += 1;
            m /= k;
        }
        Geo { n: n as i64, k, log_k: k.trailing_zeros(), levels }
    }

    /// Spatial side of a level-ℓ segment.
    #[inline]
    fn side(&self, level: u32) -> usize {
        (self.n as usize) / self.k.pow(level)
    }

    /// VPs of a level-ℓ segment.
    #[inline]
    fn seg_vps(&self, level: u32) -> usize {
        self.side(level).pow(D as u32)
    }

    /// Box side at level ℓ.
    #[inline]
    fn len(&self, level: u32) -> i64 {
        2 * self.n / self.k.pow(level) as i64
    }

    /// The label of a level-ℓ segment's supersteps.
    #[inline]
    fn label(&self, level: u32) -> u32 {
        D as u32 * level * self.log_k
    }

    /// The first time row of block `blk`'s box at level ℓ.
    #[inline]
    fn t_min(&self, blk: Block<D>, level: u32) -> i64 {
        let [a, b] = blk[0];
        ((a + b) * self.len(level) - (self.n - 1)).div_euclid(2)
    }

    /// Whether `col` lies in the spatial square.
    #[inline]
    fn in_square(&self, col: Col<D>) -> bool {
        (0..D).all(|i| 0 <= col[i] && col[i] < self.n)
    }

    /// The half-open `t`-range of column `col` inside block `blk`'s box of
    /// side `len`.
    #[inline]
    fn t_span(&self, blk: Block<D>, len: i64, col: Col<D>) -> (i64, i64) {
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        for i in 0..D {
            let (l, h) = plane_span(col[i], blk[i], len, self.n);
            (lo, hi) = (lo.max(l), hi.min(h));
        }
        (lo, hi)
    }

    /// Whether `(col, t)` is a node inside block `blk`'s box of side `len`.
    #[inline]
    fn holds(&self, blk: Block<D>, len: i64, col: Col<D>, t: i64) -> bool {
        let (lo, hi) = self.t_span(blk, len, col);
        self.in_square(col) && 0 <= t && t < self.n && lo <= t && t < hi
    }

    /// Whether block `blk`'s box at level ℓ can contain problem nodes: each
    /// axis's rotated plane must clip the square's diamond, and the axes'
    /// `u + w` windows must overlap (they all equal `2t + n − 1`).
    fn live(&self, blk: Block<D>, level: u32) -> bool {
        let (len, c) = (self.len(level), self.n - 1);
        let clips = blk.iter().all(|&[a, b]| {
            let du = c.clamp(a * len, (a + 1) * len - 1);
            let dw = c.clamp(b * len, (b + 1) * len - 1);
            (du - c).abs() + (dw - c).abs() < self.n
        });
        let sums = blk.map(|[a, b]| (a + b) * len);
        clips && sums.iter().all(|&s| sums.iter().all(|&r| s < r + 2 * len - 1))
    }

    /// The owner of column `col` in segment `seg` of side `side`: the VP
    /// that evaluates, or holds the serving copy of, its cells.
    #[inline]
    fn owner(&self, seg: usize, col: Col<D>, side: usize) -> usize {
        let m = side as i64;
        let mut pos = 0;
        for c in col {
            pos = pos * m + c.rem_euclid(m);
        }
        seg * side.pow(D as u32) + pos as usize
    }

    /// VP `vp`'s block among the level-ℓ blocks `live`, and its position in
    /// the block's segment.
    fn block_of(&self, live: &Live<D>, level: u32, vp: usize) -> Option<(Block<D>, usize)> {
        let nv = self.seg_vps(level);
        let i = live.binary_search_by_key(&(vp / nv), |&(seg, _)| seg).ok()?;
        Some((live[i].1, vp % nv))
    }
}

impl<const D: usize> Geo<D>
where
    Self: Geometry<D>,
{
    /// The cells the VP at position `r` of its segment evaluates in row `t`
    /// of its level-ℓ block `blk` (rows `t ≥ 1` only: row 0 is the input),
    /// by ascending column.
    fn row_cells(
        self,
        blk: Block<D>,
        level: u32,
        t: i64,
        r: usize,
    ) -> impl Iterator<Item = Col<D>> {
        let len = self.len(level);
        self.columns(blk, len, 0, r, self.side(level))
            .filter(move |&col| t >= 1 && self.holds(blk, len, col, t))
    }

    /// Row step `r` of the level-ℓ base blocks `live`: each cell a VP
    /// evaluates in row `t_min + r` of its block, to the distinct owners of
    /// its in-square neighbours.
    fn row_sends(
        self,
        live: &Live<D>,
        level: u32,
        r: i64,
        push: &mut dyn FnMut(usize, CellOf<D>, usize),
    ) {
        let (side, nv) = (self.side(level), self.seg_vps(level));
        for &(seg, blk) in live {
            let t = self.t_min(blk, level) + r;
            for i in 0..nv {
                let vp = seg * nv + i;
                for col in self.row_cells(blk, level, t, i) {
                    let neighbours = Self::OFFSETS.iter().map(|off| shift(col, off));
                    let dsts =
                        neighbours.filter(|&c| self.in_square(c)).map(|c| self.owner(seg, c, side));
                    distinct(dsts, vp, |dst| push(vp, Self::cell(col, t), dst));
                }
            }
        }
    }

    /// Up-propagation of the level-ℓ blocks `live`, ℓ ≥ 1: each block's
    /// output halo in each VP's own columns — in each column, the box's last
    /// two time rows, where a successor leaves the box — to the owners of
    /// the parent's segment.
    fn upprop_sends(
        self,
        live: &Live<D>,
        level: u32,
        push: &mut dyn FnMut(usize, CellOf<D>, usize),
    ) {
        let (len, side, nv) = (self.len(level), self.side(level), self.seg_vps(level));
        let (parent_side, kd) = (self.side(level - 1), self.k.pow(D as u32));
        for &(seg, blk) in live {
            for i in 0..nv {
                let vp = seg * nv + i;
                for col in self.columns(blk, len, 0, i, side) {
                    let (lo, hi) = self.t_span(blk, len, col);
                    for t in lo.max(hi - 2).max(0)..hi.min(self.n) {
                        push(vp, Self::cell(col, t), self.owner(seg / kd, col, parent_side));
                    }
                }
            }
        }
    }

    /// The distribution opening a phase of the level-ℓ blocks, into their
    /// live children `children` (level ℓ+1): for each child, the cells in
    /// each VP's own level-ℓ columns that the child needs — those in the
    /// 2-wide window below its box with a successor inside, and the `t = 0`
    /// inputs inside — each to the child's owner of its column, then as
    /// scratch copies to the distinct owners of its successors in the box.
    fn distribute_sends(
        self,
        children: &Live<D>,
        level: u32,
        push: &mut dyn FnMut(usize, CellOf<D>, usize),
    ) {
        let (side, nv) = (self.side(level), self.seg_vps(level));
        let (len, child_side, kd) =
            (self.len(level + 1), self.side(level + 1), self.k.pow(D as u32));
        for family in children.chunk_by(|x, y| x.0 / kd == y.0 / kd) {
            let parent = family[0].0 / kd;
            for i in 0..nv {
                let vp = parent * nv + i;
                for &(seg, blk) in family {
                    for col in self.columns(blk, len, 2, i, side) {
                        let (lo, hi) = self.t_span(blk, len, col);
                        let input = (lo <= 0 && 0 < hi).then_some(0);
                        for t in (lo - 2..lo.min(hi)).chain(input) {
                            let succ = Self::OFFSETS
                                .iter()
                                .map(|off| shift(col, off))
                                .filter(|&s| self.holds(blk, len, s, t + 1));
                            let in_region = self.in_square(col) && 0 <= t && t < self.n;
                            if !in_region || (t < lo && succ.clone().next().is_none()) {
                                continue;
                            }
                            let canonical = self.owner(seg, col, child_side);
                            push(vp, Self::cell(col, t), canonical);
                            let dsts = succ.map(|s| self.owner(seg, s, child_side));
                            distinct(dsts, canonical, |dst| push(vp, Self::cell(col, t), dst));
                        }
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// VP state and messages.
// --------------------------------------------------------------------------

/// Per-VP value store of a recursive stencil: the cells this VP evaluated
/// or received, by coordinates — `(x, t)` here, `(x, y, t)` for
/// [`crate::stencil2::Stencil2State`]. Which VP holds which cell is fixed
/// by the geometry, so it holds values only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StencilState<V, K: Eq + Hash = (i64, i64)> {
    pub(crate) store: HashMap<K, V>,
}

impl<V, K: Eq + Hash> StencilState<V, K> {
    pub(crate) fn value(&self, cell: K) -> Option<&V> {
        self.store.get(&cell)
    }
}

/// A cell value in flight, named by its coordinates.
#[derive(Debug, Clone)]
pub struct CellMsg<V, K = (i64, i64)> {
    cell: K,
    val: V,
}

/// The program of a recursive stencil with cell key `K`.
pub(crate) type StencilProgram<V, K> = Program<StencilState<V, K>, CellMsg<V, K>>;

/// The cell key of the `D`-dimensional stencil.
type CellOf<const D: usize> = <Geo<D> as Geometry<D>>::Cell;

/// Appends one declared step of a recursive stencil: it stores its
/// arrivals, runs `eval` on the VP's state, then ships the cells `sends`
/// lists for the VP — the table its route reads.
fn ship<V, K>(
    prog: &mut StencilProgram<V, K>,
    label: u32,
    name: &'static str,
    sends: Shipments<K>,
    eval: impl Fn(&mut StencilState<V, K>, usize) + Send + Sync + 'static,
) where
    V: Clone + Send + Sync + 'static,
    K: Copy + Eq + Hash + Send + Sync + 'static,
{
    let sends = Arc::new(sends);
    let table = Arc::clone(&sends);
    let route = move |ctx: &Ctx, k| table.route(ctx.vp, k);
    prog.step_oblivious(label, name, sends.out_degree(), route, move |st, ctx, inbox, out| {
        st.store.extend(inbox.drain(..).map(|m| (m.cell, m.val)));
        eval(st, ctx.vp);
        for &(cell, _) in sends.of(ctx.vp) {
            out.send(CellMsg { cell, val: st.store[&cell].clone() });
        }
    });
}

// --------------------------------------------------------------------------
// The recursive schedule.
// --------------------------------------------------------------------------

/// Builds the recursive stencil program of rule `O` on `M(n^D)`.
pub(crate) fn build_recursive<const D: usize, O: Rule<D>>(
    n: usize,
) -> StencilProgram<O::V, CellOf<D>>
where
    Geo<D>: Geometry<D>,
{
    let mut prog = Program::new(n.pow(D as u32), n);
    emit_eval::<D, O>(&mut prog, Geo::new(n), 0, vec![(0, [[0; 2]; D])]);
    prog
}

/// Evaluates the cells of row `t` of block `blk` that the VP at position
/// `r` of its level-ℓ segment owns.
fn eval_row<const D: usize, O: Rule<D>>(
    geo: Geo<D>,
    st: &mut StencilState<O::V, CellOf<D>>,
    blk: Block<D>,
    level: u32,
    t: i64,
    r: usize,
) where
    Geo<D>: Geometry<D>,
{
    for col in geo.row_cells(blk, level, t, r) {
        let pred = |off: Col<D>| {
            let c = shift(col, &off);
            let val = geo.in_square(c).then(|| st.value(Geo::<D>::cell(c, t - 1)));
            debug_assert!(
                !matches!(val, Some(None)),
                "missing predecessor {c:?} of {col:?} at t = {t}"
            );
            val.flatten()
        };
        let val = O::eval(pred);
        st.store.insert(Geo::<D>::cell(col, t), val);
    }
}

/// Appends the up-propagation superstep of the level-ℓ blocks `live`: their
/// output halos are shipped to the parent's owners. Single-VP base blocks
/// also perform their whole (local) evaluation here.
fn emit_upprop<const D: usize, O: Rule<D>>(
    prog: &mut StencilProgram<O::V, CellOf<D>>,
    geo: Geo<D>,
    level: u32,
    live: Arc<Live<D>>,
    eval_local: bool,
) where
    Geo<D>: Geometry<D>,
{
    let sends = Shipments::new(|push| geo.upprop_sends(&live, level, push));
    let name = <Geo<D> as Geometry<D>>::STEPS[1];
    ship(prog, geo.label(level - 1), name, sends, move |st, vp| {
        if let (true, Some((blk, r))) = (eval_local, geo.block_of(&live, level, vp)) {
            let t_min = geo.t_min(blk, level);
            for row in 0..2 * geo.len(level) {
                eval_row::<D, O>(geo, st, blk, level, t_min + row, r);
            }
        }
    });
}

/// Emits the schedule evaluating the live level-ℓ blocks `live`, ending
/// with the up-propagation superstep to level ℓ−1 (omitted at the top).
fn emit_eval<const D: usize, O: Rule<D>>(
    prog: &mut StencilProgram<O::V, CellOf<D>>,
    geo: Geo<D>,
    level: u32,
    live: Live<D>,
) where
    Geo<D>: Geometry<D>,
{
    let (side, label) = (geo.side(level), geo.label(level));
    let [row_step, _, distribute_step] = <Geo<D> as Geometry<D>>::STEPS;

    if level > 0 && (level >= geo.levels || side < geo.k) {
        // ---- Base block ------------------------------------------------
        let live = Arc::new(live);
        if side > 1 {
            // Row-by-row evaluation: 2·len supersteps of the segment label.
            for row in 0..2 * geo.len(level) {
                let sends = Shipments::new(|push| geo.row_sends(&live, level, row, push));
                let live = Arc::clone(&live);
                ship(prog, label, row_step, sends, move |st, vp| {
                    if let Some((blk, r)) = geo.block_of(&live, level, vp) {
                        eval_row::<D, O>(geo, st, blk, level, geo.t_min(blk, level) + row, r);
                    }
                });
            }
        }
        emit_upprop::<D, O>(prog, geo, level, live, side == 1);
        return;
    }

    // ---- Recursive block: its wavefront phases -------------------------
    let kd = geo.k.pow(D as u32);
    for q in 0..geo.phases() {
        // Phase-start distribution: the serving copies feed the live
        // children of phase q with their input halos (and t = 0 inputs).
        let mut children = Vec::new();
        for &(seg, blk) in &live {
            geo.children(blk, q, |digit, child| {
                if geo.live(child, level + 1) {
                    children.push((seg * kd + digit, child));
                }
            });
        }
        let sends = Shipments::new(|push| geo.distribute_sends(&children, level, push));
        ship(prog, label, distribute_step, sends, |_, _| {});
        emit_eval::<D, O>(prog, geo, level + 1, children);
    }

    if level > 0 {
        emit_upprop::<D, O>(prog, geo, level, Arc::new(live), false);
    }
}

impl Geometry<1> for Geo<1> {
    type Cell = (i64, i64);
    const STEPS: [&'static str; 3] = ["stencil-row", "stencil-upprop", "stencil-distribute"];
    const OFFSETS: &'static [Col<1>] = &[[1], [0], [-1]];

    fn phases(&self) -> usize {
        2 * self.k - 1
    }

    fn children(&self, [[a, b]]: Block<1>, q: usize, mut push: impl FnMut(usize, Block<1>)) {
        let k = self.k as i64;
        for bd in 0..k {
            if let Some(ad) = phase_digit(q, bd, k) {
                push(bd as usize, [[a * k + ad, b * k + bd]]);
            }
        }
    }

    fn columns(
        self,
        [ab]: Block<1>,
        len: i64,
        grow: i64,
        r: usize,
        side: usize,
    ) -> impl Iterator<Item = Col<1>> {
        plane_axis(ab, len, grow, self.n, r as i64, side as i64).map(|x| [x])
    }

    fn cell([x]: Col<1>, t: i64) -> (i64, i64) {
        (x, t)
    }
}

// --------------------------------------------------------------------------
// The network-oblivious diamond algorithm.
// --------------------------------------------------------------------------

/// The recursive diamond-decomposition stencil algorithm on `M(n)`.
/// Supports every power of two `n ≥ 2`.
#[derive(Debug, Clone, Default)]
pub struct DiamondStencil<O> {
    _marker: std::marker::PhantomData<O>,
}

impl<O: StencilOp> NobAlgorithm for DiamondStencil<O> {
    type State = StencilState<O::V>;
    type Msg = CellMsg<O::V>;
    type Input = [O::V];
    type Output = Vec<O::V>;

    fn name(&self) -> String {
        "stencil1-diamond".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[O::V]) -> Vec<StencilState<O::V>> {
        assert!(n.is_power_of_two() && n >= 2);
        assert_eq!(input.len(), n);
        // The input distribution: VP x holds column x's input.
        let input_cell = |x: usize| HashMap::from([((x as i64, 0), input[x].clone())]);
        (0..n).map(|x| StencilState { store: input_cell(x) }).collect()
    }

    fn build(&self, n: usize) -> StencilProgram<O::V, (i64, i64)> {
        build_recursive::<1, O>(n)
    }

    fn extract(&self, n: usize, states: Vec<StencilState<O::V>>) -> Vec<O::V> {
        let mut out = vec![O::V::default(); n];
        let t_last = (n - 1) as i64;
        for st in &states {
            for (&(x, t), val) in &st.store {
                if t == t_last {
                    out[x as usize] = val.clone();
                }
            }
        }
        out
    }
}

// --------------------------------------------------------------------------
// Naive time-stepping baseline.
// --------------------------------------------------------------------------

/// The halo-exchange baseline: VP `x` keeps column `x`; each of the `n−1`
/// time steps is one 0-superstep in which every VP sends its current value
/// to both neighbours. `H(n, p, σ) = Θ(n·(1 + σ))` — bandwidth-optimal
/// against Lemma 4.10 but paying σ per *time step*, which is exactly where
/// the diamond algorithm wins (Thm 4.11).
#[derive(Debug, Clone, Default)]
pub struct NaiveStencil<O> {
    _marker: std::marker::PhantomData<O>,
}

/// Naive VP state: the current value of the VP's column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NaiveState<V> {
    cur: V,
}

impl<O: StencilOp> NobAlgorithm for NaiveStencil<O> {
    type State = NaiveState<O::V>;
    type Msg = O::V;
    type Input = [O::V];
    type Output = Vec<O::V>;

    fn name(&self) -> String {
        "stencil1-naive".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[O::V]) -> Vec<NaiveState<O::V>> {
        assert!(n.is_power_of_two() && n >= 2);
        assert_eq!(input.len(), n);
        input.iter().map(|v| NaiveState { cur: v.clone() }).collect()
    }

    fn build(&self, n: usize) -> Program<NaiveState<O::V>, O::V> {
        let mut prog = Program::new(n, n);
        for step in 0..n {
            // The halo exchange is the canonical fixed-shift pattern: every
            // VP sends to its two spatial neighbours (boundaries skip), and
            // the final time step sends nothing.
            let sends = step + 1 < n;
            prog.step_oblivious(
                0,
                "naive-step",
                if sends { 2 } else { 0 },
                move |ctx: &Ctx, k| {
                    if k == 0 {
                        if ctx.vp > 0 {
                            Route::Data(ctx.vp - 1)
                        } else {
                            Route::Skip
                        }
                    } else if ctx.vp + 1 < ctx.v {
                        Route::Data(ctx.vp + 1)
                    } else {
                        Route::Skip
                    }
                },
                move |st: &mut NaiveState<O::V>, ctx, inbox, out| {
                    if step > 0 {
                        // Arrivals by ascending source: the left neighbour's
                        // value, if there is one, then the right one's.
                        let mut arrivals = inbox.drain(..);
                        let left = if ctx.vp > 0 { arrivals.next() } else { None };
                        let right = arrivals.next();
                        st.cur = O::apply(left.as_ref(), Some(&st.cur), right.as_ref());
                    }
                    if sends {
                        if ctx.vp > 0 {
                            out.send(st.cur.clone());
                        }
                        if ctx.vp + 1 < ctx.v {
                            out.send(st.cur.clone());
                        }
                    }
                },
            );
        }
        prog
    }

    fn extract(&self, _n: usize, states: Vec<NaiveState<O::V>>) -> Vec<O::V> {
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
        (0..n as u64).map(|x| x.wrapping_mul(0x9e37_79b9) % 1009).collect()
    }

    #[test]
    fn naive_matches_reference() {
        for &n in &[2usize, 4, 16, 64, 128] {
            let xs = input(n);
            let want = stencil_reference::<WrapSumOp>(&xs);
            let alg = NaiveStencil::<WrapSumOp>::default();
            let (got, trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            assert_eq!(got, want, "n = {n}");
            assert_eq!(trace.superstep_count(), n);
        }
    }

    #[test]
    fn diamond_matches_reference() {
        for &n in &[4usize, 8, 16, 32, 64, 128, 256] {
            let xs = input(n);
            let want = stencil_reference::<WrapSumOp>(&xs);
            let alg = DiamondStencil::<WrapSumOp>::default();
            let (got, _) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn diamond_matches_reference_heat() {
        let n = 64;
        let xs: Vec<f64> = (0..n).map(|x| (x as f64 * 0.37).sin()).collect();
        let want = stencil_reference::<HeatOp>(&xs);
        let alg = DiamondStencil::<HeatOp>::default();
        let (got, _) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{g} vs {w}");
        }
    }

    #[test]
    fn folding_preserves_output_and_metrics() {
        let n = 64;
        let xs = input(n);
        let alg = DiamondStencil::<WrapSumOp>::default();
        let (full, full_trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
        for p in [2usize, 8, 64] {
            let (out, trace) = executed_folding(&alg, n, &xs[..], p);
            assert_eq!(out, full);
            let mut q = 2;
            while q <= p {
                assert_eq!(trace.fold(q), full_trace.fold(q));
                q *= 2;
            }
        }
    }

    #[test]
    fn diamond_beats_naive_when_latency_dominates() {
        // Thm 4.11: the diamond algorithm trades a 4^√log n bandwidth factor for
        // far fewer supersteps; it wins once σ is large.
        let n = 256;
        let xs = input(n);
        let (_, t_d) =
            execute(&DiamondStencil::<WrapSumOp>::default(), n, &xs[..], &RunOptions::default())
                .unwrap();
        let (_, t_n) =
            execute(&NaiveStencil::<WrapSumOp>::default(), n, &xs[..], &RunOptions::default())
                .unwrap();
        // Bandwidth regime: naive is optimal.
        let p = 8;
        assert!(t_n.comm_complexity(p, 0.0) < t_d.comm_complexity(p, 0.0));
        // Latency regime (σ = Θ(n/p), the largest Thm 4.11 allows): the
        // oblivious decomposition pays ~(2k−1)^{log_k p} supersteps instead
        // of naive's n and wins.
        let sigma = (n / p) as f64;
        assert!(
            t_d.comm_complexity(p, sigma) < t_n.comm_complexity(p, sigma),
            "diamond {} vs naive {}",
            t_d.comm_complexity(p, sigma),
            t_n.comm_complexity(p, sigma)
        );
    }

    #[test]
    fn phases_partition_the_sub_diamond_grid_into_anti_diagonals() {
        // Figure 1: a recursive block runs 2k − 1 phases; phase q evaluates
        // the anti-diagonal a + b = q of the k × k sub-diamond grid, i.e.
        // min(q + 1, 2k − 1 − q) sub-diamonds in parallel, and every
        // sub-diamond runs in exactly one phase.
        for k in [2usize, 4, 8] {
            let mut phase_of = vec![None; k * k];
            for q in 0..2 * k - 1 {
                let mut population = 0;
                for b in 0..k {
                    if let Some(a) = phase_digit(q, b as i64, k as i64) {
                        assert_eq!(a as usize + b, q, "k={k}: phase {q} off its anti-diagonal");
                        let cell = &mut phase_of[a as usize * k + b];
                        assert_eq!(cell.replace(q), None, "k={k}: cell ({a},{b}) in two phases");
                        population += 1;
                    }
                }
                assert_eq!(population, (q + 1).min(2 * k - 1 - q), "k={k}, phase {q}");
            }
            assert!(phase_of.iter().all(Option::is_some), "k={k}: a cell runs in no phase");
        }
        // Figure 1's instance, n = 256: k = 2^⌈√log n⌉ = 8, and the top
        // block's schedule opens each of its 15 phases with one distribution.
        let geo = Geo::<1>::new(256);
        assert_eq!(geo.k, 8);
        let prog = DiamondStencil::<WrapSumOp>::default().build(256);
        let top_phases =
            prog.steps().iter().filter(|s| s.label == 0 && s.name == "stencil-distribute").count();
        assert_eq!(top_phases, 2 * geo.k - 1);
    }

    #[test]
    fn communication_complexity_matches_theorem_4_11() {
        // H(n, p, 0) = O(n·4^√log n): the measured/closed-form ratio stays
        // bounded across n. It reads at most 0.81 at n = 64 and 256 (p =
        // 16), and 1.003 at n = 128, where k = 2^⌈√log n⌉ rounds up to 8 as
        // at n = 256 while the closed form's 4^√log n does not.
        for (n, messages, bound) in
            [(64usize, 13_609, 1.0), (128, 63_611, 1.01), (256, 229_021, 1.0)]
        {
            let xs = input(n);
            let alg = DiamondStencil::<WrapSumOp>::default();
            let (_, trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            // Up-propagation ships only its block's own halo: re-shipping
            // the stale copies of earlier blocks sent 93 856 at n = 64 and
            // 544 222 at n = 256. A row step ships each cell once to each
            // distinct owner of an in-square neighbour: shipping to the
            // owners of both `x ± 1`, in the square or not, sent 79 867 at
            // n = 128 and 229 531 at n = 256.
            assert_eq!(trace.total_messages(), messages, "n={n}");
            for p in [4usize, 16] {
                let measured = trace.comm_complexity(p, 0.0);
                let theory = lower_bounds::upper::stencil1(n, p, 0.0);
                let ratio = measured / theory;
                assert!(ratio < bound, "n={n} p={p}: measured/theory = {ratio}");
            }
            // Against Lemma 4.10's Ω(n + σ) the factor carries Thm 4.11's
            // 4^√log n (≈ 30 at n = 64) and the σ term of ~(2k−1)^{log_k p}
            // supersteps: it peaks at 115 (n = 64, p = 16, σ = 16) on this
            // grid, at 88 for n = 128 and at 67 for n = 256.
            for p in [4usize, 8, 16] {
                for sigma in [0.0, 16.0] {
                    let ratio =
                        trace.comm_complexity(p, sigma) / lower_bounds::stencil(n, 1, p, sigma);
                    assert!(ratio < 128.0, "n={n} p={p} sigma={sigma}: measured/LB = {ratio}");
                }
            }
        }
    }
}
