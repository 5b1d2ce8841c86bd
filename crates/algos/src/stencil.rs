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
//! Plan coverage: [`NaiveStencil`]'s halo exchange is a fixed shift and
//! declares an oblivious route (planned execution); the diamond algorithm's
//! distribution/up-propagation supersteps derive their sends by iterating
//! the per-VP value store, whose order is delivery-history-dependent, so
//! they stay on the engine's dynamic path.

use nob_machine::{Ctx, Inbox, NobAlgorithm, Outbox, Program, Route};
use std::collections::BTreeMap;

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
// Rotated-coordinate geometry.
// --------------------------------------------------------------------------

/// `(u, w) = (x + t, t − x + (n−1))`; inverse `x = (u − w + n − 1)/2`,
/// `t = (u + w − (n−1))/2`.
#[inline]
fn to_uw(x: i64, t: i64, n: i64) -> (i64, i64) {
    (x + t, t - x + (n - 1))
}

#[inline]
fn to_xt(u: i64, w: i64, n: i64) -> (i64, i64) {
    ((u - w + n - 1) / 2, (u + w - (n - 1)) / 2)
}

/// Whether `(x, t)` is a node of the problem square.
#[inline]
fn in_region(x: i64, t: i64, n: i64) -> bool {
    0 <= x && x < n && 0 <= t && t < n
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

/// Static per-instance geometry.
#[derive(Debug, Clone, Copy)]
struct Geo {
    n: i64,
    /// The decomposition arity `k = 2^⌈√log n⌉`.
    k: usize,
    log_k: u32,
    /// Box side at each level: `len_ℓ = 2n / k^ℓ`.
    levels: u32,
}

impl Geo {
    fn new(n: usize) -> Geo {
        let log_n = n.trailing_zeros().max(1);
        let k = 1usize << (log_n as f64).sqrt().ceil() as u32;
        // Levels until the segment m_ℓ = n/k^ℓ drops below k (base case).
        let mut levels = 0;
        let mut m = n;
        while m >= k && m > 1 {
            levels += 1;
            m /= k;
        }
        Geo { n: n as i64, k, log_k: k.trailing_zeros(), levels }
    }

    /// Segment size at level ℓ.
    #[inline]
    fn seg(&self, level: u32) -> usize {
        (self.n as usize) / self.k.pow(level)
    }

    /// Box side at level ℓ.
    #[inline]
    fn len(&self, level: u32) -> i64 {
        2 * self.n / self.k.pow(level) as i64
    }

    /// The level-ℓ block containing rotated point `(u, w)` (global indices).
    #[inline]
    fn block_of(&self, u: i64, w: i64, level: u32) -> (i64, i64) {
        let len = self.len(level);
        (u.div_euclid(len), w.div_euclid(len))
    }

    /// The live block on this VP's level-ℓ segment under ancestor phases
    /// `qs`, or `None` when the segment idles. The segment index *is* the
    /// global `B` coordinate; `A`'s base-k digits are forced by the phases.
    fn my_block(&self, vp: usize, level: u32, qs: &[usize]) -> Option<(i64, i64)> {
        debug_assert_eq!(qs.len(), level as usize);
        let m = self.seg(level);
        let b_global = (vp / m) as i64;
        let mut a_global = 0i64;
        let k = self.k as i64;
        for (j, &q) in qs.iter().enumerate() {
            let shift = self.k.pow(level - 1 - j as u32) as i64;
            let a_digit = phase_digit(q, (b_global / shift) % k, k)?;
            a_global += a_digit * shift;
        }
        let (a, b) = (a_global, b_global);
        // Idle if the box misses the problem square entirely.
        let len = self.len(level);
        let (u0, w0) = (a * len, b * len);
        // The square is the diamond |u−(n−1)| + |w−(n−1)| ≤ n−1; a box
        // intersects it iff the box's closest corner does.
        let cu = (self.n - 1).clamp(u0, u0 + len - 1);
        let cw = (self.n - 1).clamp(w0, w0 + len - 1);
        if (cu - (self.n - 1)).abs() + (cw - (self.n - 1)).abs() < self.n {
            Some((a, b))
        } else {
            None
        }
    }

    /// Owner of column `x` within the segment of block `(…, b)` at level ℓ.
    #[inline]
    fn owner(&self, b: i64, x: i64, level: u32) -> usize {
        let m = self.seg(level);
        b as usize * m + (x.rem_euclid(m as i64)) as usize
    }
}

// --------------------------------------------------------------------------
// VP state and messages.
// --------------------------------------------------------------------------

/// Marker bits: bit ℓ set ⇒ this copy serves the level-(ℓ+1) distributions
/// (it is the canonical copy within its level-ℓ segment). 0 = scratch.
type ServeMask = u32;

/// Per-VP value store. Ordered (not hashed): the distribution supersteps
/// send while iterating the store, so iteration order is send order — and
/// send order must be a deterministic function of `(program, v)` for the
/// engine's trace capture to replay these steps as planned ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StencilState<V> {
    store: BTreeMap<(i64, i64), (V, ServeMask)>,
}

impl<V: Clone> StencilState<V> {
    fn insert(&mut self, key: (i64, i64), val: V, mask: ServeMask) {
        self.store
            .entry(key)
            .and_modify(|e| e.1 |= mask)
            .or_insert((val, mask));
    }

    fn value(&self, x: i64, t: i64) -> Option<&V> {
        self.store.get(&(x, t)).map(|(v, _)| v)
    }
}

/// A cell value in flight: coordinates, payload, and the serve mask the
/// receiver should store it under.
#[derive(Debug, Clone)]
pub struct CellMsg<V> {
    x: i64,
    t: i64,
    val: V,
    mask: ServeMask,
}

fn ingest<V: Clone>(st: &mut StencilState<V>, inbox: &mut Inbox<'_, CellMsg<V>>) {
    for m in inbox.drain(..) {
        st.insert((m.x, m.t), m.val, m.mask);
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

/// Does `(x, t)` — a stored cell — need to be shipped into child block
/// `(a, b)` of `level` for this phase? True when the cell is outside the box
/// but feeds a node inside it, or is a `t = 0` input node inside it.
fn needed_by(geo: &Geo, x: i64, t: i64, a: i64, b: i64, level: u32) -> bool {
    let len = geo.len(level);
    let (u, w) = to_uw(x, t, geo.n);
    let inside = |uu: i64, ww: i64| {
        uu >= a * len && uu < (a + 1) * len && ww >= b * len && ww < (b + 1) * len
    };
    if inside(u, w) {
        return t == 0;
    }
    // Successors: (u+2, w), (u+1, w+1), (u, w+2) — any inside the box and the
    // region?
    for (du, dw) in [(2, 0), (1, 1), (0, 2)] {
        let (su, sw) = (u + du, w + dw);
        let (sx, st) = to_xt(su, sw, geo.n);
        if inside(su, sw) && in_region(sx, st, geo.n) {
            return true;
        }
    }
    false
}

/// Is `(x, t)` on the *output halo* of the level-ℓ block `(a, b)` — i.e.,
/// does some successor of it lie outside the box?
fn on_output_halo(geo: &Geo, x: i64, t: i64, a: i64, b: i64, level: u32) -> bool {
    let len = geo.len(level);
    let (u, w) = to_uw(x, t, geo.n);
    u >= (a + 1) * len - 2 || w >= (b + 1) * len - 2
}

/// Evaluates the row-`t` cells of block `(a, b)` owned by `vp`, storing them
/// with `mask` and sending scratch copies to the x-neighbour owners.
#[allow(clippy::too_many_arguments)]
fn eval_row<O: StencilOp>(
    geo: &Geo,
    st: &mut StencilState<O::V>,
    ctx: &Ctx,
    a: i64,
    b: i64,
    level: u32,
    t: i64,
    mask: ServeMask,
    send_neighbours: bool,
    out: &mut Outbox<CellMsg<O::V>>,
) {
    if t < 1 || t >= geo.n {
        return;
    }
    let len = geo.len(level);
    let m = geo.seg(level) as i64;
    let my_off = (ctx.vp as i64) % m;
    // Row t within the box: u ∈ [u0, u0+len) with w = 2t + (n−1) − u in
    // [w0, w0+len); x = u − t.
    let (u0, w0) = (a * len, b * len);
    let u_lo = u0.max(2 * t + (geo.n - 1) - (w0 + len - 1));
    let u_hi = (u0 + len - 1).min(2 * t + (geo.n - 1) - w0);
    for u in u_lo..=u_hi {
        let x = u - t;
        if !in_region(x, t, geo.n) || x.rem_euclid(m) != my_off {
            continue;
        }
        let l = (x > 0).then(|| st.value(x - 1, t - 1)).flatten();
        let c = st.value(x, t - 1);
        let r = (x + 1 < geo.n).then(|| st.value(x + 1, t - 1)).flatten();
        debug_assert!(
            (x == 0 || l.is_some()) && c.is_some() && (x + 1 == geo.n || r.is_some()),
            "missing in-region predecessor of ({x}, {t}) on VP {}",
            ctx.vp
        );
        let val = O::apply(l, c, r);
        st.insert((x, t), val.clone(), mask);
        if send_neighbours && m > 1 {
            for nx in [x - 1, x + 1] {
                let dst = geo.owner(b, nx, level);
                if dst != ctx.vp {
                    out.send(dst, CellMsg { x, t, val: val.clone(), mask: 0 });
                }
            }
        }
    }
}

/// Appends the up-propagation superstep of a level-ℓ block: its output-halo
/// serve(ℓ) copies are shipped to the parent's owners as serve(ℓ−1) copies.
/// Single-VP base blocks also perform their whole (local) evaluation here.
fn emit_upprop<O: StencilOp>(
    prog: &mut Program<StencilState<O::V>, CellMsg<O::V>>,
    geo: Geo,
    level: u32,
    qs: Vec<usize>,
    eval_local: bool,
) {
    let parent_label = (level - 1) * geo.log_k;
    prog.step(parent_label, "stencil-upprop", move |st, ctx, inbox, out| {
        ingest(st, inbox);
        let Some((a, b)) = geo.my_block(ctx.vp, level, &qs) else {
            return;
        };
        if eval_local {
            // Single-VP block: evaluate the whole box here.
            let len = geo.len(level);
            let t_min = (a * len + b * len - (geo.n - 1)).div_euclid(2);
            for r in 0..2 * len {
                eval_row::<O>(&geo, st, ctx, a, b, level, t_min + r, 1 << level, false, out);
            }
        }
        let parent_b = b.div_euclid(geo.k as i64);
        let mut halo: Vec<CellMsg<O::V>> = Vec::new();
        for (&(x, t), (val, mask)) in st.store.iter() {
            if mask & (1 << level) != 0 && on_output_halo(&geo, x, t, a, b, level) {
                halo.push(CellMsg { x, t, val: val.clone(), mask: 1 << (level - 1) });
            }
        }
        for msg in halo {
            let dst = geo.owner(parent_b, msg.x, level - 1);
            if dst == ctx.vp {
                st.insert((msg.x, msg.t), msg.val, msg.mask);
            } else {
                out.send(dst, msg);
            }
        }
    });
}

/// Emits the schedule evaluating all live level-ℓ blocks (under ancestor
/// phases `qs`), ending with the up-propagation superstep to level ℓ−1
/// (omitted at the top level).
fn emit_eval<O: StencilOp>(
    prog: &mut Program<StencilState<O::V>, CellMsg<O::V>>,
    geo: Geo,
    level: u32,
    qs: Vec<usize>,
) {
    let m = geo.seg(level);

    if level > 0 && (level >= geo.levels || m < geo.k) {
        // ---- Base block ------------------------------------------------
        if m > 1 {
            // Row-by-row evaluation: 2·len supersteps of the segment label.
            let label = level * geo.log_k;
            let len = geo.len(level);
            for r in 0..2 * len {
                let qs_c = qs.clone();
                prog.step(label, "stencil-row", move |st, ctx, inbox, out| {
                    ingest(st, inbox);
                    if let Some((a, b)) = geo.my_block(ctx.vp, level, &qs_c) {
                        let len = geo.len(level);
                        let t_min = (a * len + b * len - (geo.n - 1)).div_euclid(2);
                        eval_row::<O>(&geo, st, ctx, a, b, level, t_min + r, 1 << level, true, out);
                    }
                });
            }
        }
        emit_upprop::<O>(prog, geo, level, qs, m == 1);
        return;
    }

    // ---- Recursive block: 2k−1 wavefront phases ------------------------
    for q in 0..(2 * geo.k - 1) {
        // Phase-start distribution: serve(ℓ) copies feed the live children
        // of phase q with their input halos (and t = 0 input nodes).
        let label = level * geo.log_k;
        let qs_c = qs.clone();
        prog.step(label, "stencil-distribute", move |st, ctx, inbox, out| {
            ingest(st, inbox);
            let k = geo.k as i64;
            let my_parent_b = (ctx.vp / geo.seg(level)) as i64;
            let mut qs_child = Vec::with_capacity(qs_c.len() + 1);
            qs_child.extend_from_slice(&qs_c);
            qs_child.push(q);
            let mut sends: Vec<(usize, CellMsg<O::V>)> = Vec::new();
            for (&(x, t), (val, mask)) in st.store.iter() {
                if mask & (1 << level) == 0 {
                    continue;
                }
                let (u, w) = to_uw(x, t, geo.n);
                let mut targets: Vec<(i64, i64)> = Vec::new();
                for (du, dw) in [(0i64, 0i64), (2, 0), (1, 1), (0, 2)] {
                    let blk = geo.block_of(u + du, w + dw, level + 1);
                    if !targets.contains(&blk) {
                        targets.push(blk);
                    }
                }
                for (a, b) in targets {
                    // In-phase, inside my level-ℓ block, live, and needed.
                    if phase_digit(q, b.rem_euclid(k), k) != Some(a.rem_euclid(k)) {
                        continue;
                    }
                    if b.div_euclid(k) != my_parent_b || a < 0 || b < 0 {
                        continue;
                    }
                    let child_rep = b as usize * geo.seg(level + 1);
                    if geo.my_block(child_rep, level + 1, &qs_child) != Some((a, b)) {
                        continue;
                    }
                    if !needed_by(&geo, x, t, a, b, level + 1) {
                        continue;
                    }
                    // Serve copy to the canonical owner of column x…
                    let canonical = geo.owner(b, x, level + 1);
                    sends.push((
                        canonical,
                        CellMsg { x, t, val: val.clone(), mask: 1 << (level + 1) },
                    ));
                    // …and scratch copies to the owners computing the cell's
                    // in-box successors (they read it as a predecessor).
                    let len = geo.len(level + 1);
                    let inside = |uu: i64, ww: i64| {
                        uu >= a * len && uu < (a + 1) * len && ww >= b * len && ww < (b + 1) * len
                    };
                    for (du, dw) in [(2i64, 0i64), (1, 1), (0, 2)] {
                        let (su, sw) = (u + du, w + dw);
                        let (sx, st_t) = to_xt(su, sw, geo.n);
                        if inside(su, sw) && in_region(sx, st_t, geo.n) {
                            let dst = geo.owner(b, sx, level + 1);
                            if dst != canonical {
                                sends.push((dst, CellMsg { x, t, val: val.clone(), mask: 0 }));
                            }
                        }
                    }
                }
            }
            for (dst, msg) in sends {
                if dst == ctx.vp {
                    st.insert((msg.x, msg.t), msg.val, msg.mask);
                } else {
                    out.send(dst, msg);
                }
            }
        });
        let mut qs_next = qs.clone();
        qs_next.push(q);
        emit_eval::<O>(prog, geo, level + 1, qs_next);
    }

    if level > 0 {
        emit_upprop::<O>(prog, geo, level, qs, false);
    }
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
        (0..n)
            .map(|x| {
                let mut st = StencilState::default();
                // serve(0): the initial input distribution, one column each.
                st.insert((x as i64, 0), input[x].clone(), 1);
                st
            })
            .collect()
    }

    fn build(&self, n: usize) -> Program<StencilState<O::V>, CellMsg<O::V>> {
        let geo = Geo::new(n);
        let mut prog = Program::new(n, n);
        emit_eval::<O>(&mut prog, geo, 0, Vec::new());
        prog
    }

    fn extract(&self, n: usize, states: Vec<StencilState<O::V>>) -> Vec<O::V> {
        let mut out = vec![O::V::default(); n];
        let t_last = (n - 1) as i64;
        for st in &states {
            for (&(x, t), (val, _)) in st.store.iter() {
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

/// Naive VP state: current value plus the neighbour values of the last step.
#[derive(Debug, Clone, Default)]
pub struct NaiveState<V> {
    cur: V,
    left: Option<V>,
    right: Option<V>,
}

/// Neighbour value message: `(from_left, value)`.
pub type NaiveMsg<V> = (bool, V);

impl<O: StencilOp> NobAlgorithm for NaiveStencil<O> {
    type State = NaiveState<O::V>;
    type Msg = NaiveMsg<O::V>;
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
        input
            .iter()
            .map(|v| NaiveState { cur: v.clone(), left: None, right: None })
            .collect()
    }

    fn build(&self, n: usize) -> Program<NaiveState<O::V>, NaiveMsg<O::V>> {
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
                    for (from_left, v) in inbox.drain(..) {
                        if from_left {
                            st.left = Some(v);
                        } else {
                            st.right = Some(v);
                        }
                    }
                    if step > 0 {
                        st.cur = O::apply(st.left.as_ref(), Some(&st.cur), st.right.as_ref());
                        st.left = None;
                        st.right = None;
                    }
                    if sends {
                        if ctx.vp > 0 {
                            out.send((false, st.cur.clone()));
                        }
                        if ctx.vp + 1 < ctx.v {
                            out.send((true, st.cur.clone()));
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
    use nob_core::lower_bounds;
    use nob_machine::{execute, execute_folded, RunOptions};

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
            let (out, trace) = execute_folded(&alg, n, &xs[..], p, &RunOptions::default()).unwrap();
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
        let geo = Geo::new(256);
        assert_eq!(geo.k, 8);
        let prog = DiamondStencil::<WrapSumOp>::default().build(256);
        let top_phases =
            prog.steps().iter().filter(|s| s.label == 0 && s.name == "stencil-distribute").count();
        assert_eq!(top_phases, 2 * geo.k - 1);
    }

    #[test]
    fn communication_complexity_matches_theorem_4_11() {
        // H(n, p, 0) = O(n·4^√log n): the measured/closed-form ratio stays
        // bounded across n.
        for &n in &[64usize, 256] {
            let xs = input(n);
            let alg = DiamondStencil::<WrapSumOp>::default();
            let (_, trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
            for p in [4usize, 16] {
                let measured = trace.comm_complexity(p, 0.0);
                let theory = lower_bounds::upper::stencil1(n, p, 0.0);
                let ratio = measured / theory;
                assert!(ratio < 8.0, "n={n} p={p}: measured/theory = {ratio}");
            }
            // Against Lemma 4.10's Ω(n + σ) the factor carries Thm 4.11's
            // 4^√log n (≈ 30 at n = 64): it peaks at 269 (n = 64, p = 16,
            // σ = 16) on this grid.
            for p in [4usize, 8, 16] {
                for sigma in [0.0, 16.0] {
                    let ratio =
                        trace.comm_complexity(p, sigma) / lower_bounds::stencil(n, 1, p, sigma);
                    assert!(ratio < 320.0, "n={n} p={p} sigma={sigma}: measured/LB = {ratio}");
                }
            }
        }
    }
}
