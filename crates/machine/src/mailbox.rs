//! Flat, double-buffered mailbox arenas and shard message lanes: the
//! zero-allocation message path.
//!
//! The engine's `unsafe` lives here, behind a few small abstractions (the
//! rest is `crate::shard`'s one gang-scope lifetime erasure):
//!
//! * `Arena` — a contiguous message slab (`Vec<MaybeUninit<M>>`) plus
//!   per-VP offset ranges. Each shard (the whole machine, for the serial
//!   engine) owns two arenas swapped each superstep: the shard *reads* the
//!   messages delivered by the previous superstep from one while the gather
//!   pass *writes* this superstep's messages into the other. Steady-state
//!   supersteps reuse the slabs' capacity and allocate nothing.
//! * [`Inbox`] — the per-VP view handed to superstep closures. It yields
//!   messages **by value** straight out of the slab (`pop`, `drain`) and
//!   drops whatever the closure did not consume, mirroring the semantics of
//!   the per-VP `Vec` inboxes it replaces.
//! * `route_serial` — the serial counting-sort scatter that moves staged
//!   messages from the staging outbox into the write arena, grouped by
//!   destination VP in ascending-source order (stable, so delivery order is
//!   identical to the legacy per-VP delivery loop).
//! * `DirectOut` — the *planned* alternative to staging + counting sort:
//!   for supersteps with a compiled communication plan, VP closures write
//!   payloads straight into their destination arena slots through
//!   cursor-guarded raw writes (see invariant 3). The destination of each
//!   write comes from the step's route (`crate::program::Slots`) or, for a
//!   captured plan, from a send already compared with the captured table.
//!   It serves every planned step whose payloads stay in one arena: each
//!   step of the serial loop, and a gang worker's *fused* step over its own
//!   shard.
//! * `CrossOut` — the writer of a planned step whose payloads cross
//!   shards. It writes into no arena: each payload goes, in send order, into
//!   the sending worker's own out-lane for its destination shard, and the
//!   lanes change hands at the superstep's one barrier, after which each
//!   receiver drains its incoming lanes into its own write arena — the
//!   model's own semantics, where a superstep's messages become visible at
//!   its end.
//! * `Lane` / `LaneGrid` — the sharded executor's hand-over buffers, one
//!   lane per (source shard, destination shard) pair, shard-internal
//!   traffic on the diagonal, staged in structure-of-arrays form
//!   (destinations separate from payloads). One lane system serves both
//!   tiers: each worker fills its own out-lanes — a dynamic step's flush
//!   with payload messages only (the sender meters every message, so a
//!   dummy never leaves its shard), a cross-shard planned step through
//!   `CrossOut` — and swaps them into two slot grids, alternating by
//!   barrier round. Each slot is a `Mutex`: its sender fills it before a
//!   barrier and its receiver drains it after, so the locks are never
//!   contended and the handover needs no `unsafe`.
//!
//! # Safety invariants
//!
//! 1. `Arena.slab[..Arena.filled]` is initialized; everything past `filled`
//!    is uninitialized. `filled` is only nonzero between a completed scatter
//!    and the next read phase.
//! 2. The read phase takes the initialized prefix with `Arena::take_read`,
//!    which resets `filled` to 0 first: from that point the [`Inbox`] views
//!    own the messages (each slab slot is covered by exactly one inbox, per
//!    the offsets built during scatter), and [`Inbox`]'s `Drop` consumes the
//!    leftovers. If a VP closure panics, inboxes not yet constructed leak
//!    their messages — safe, never observed as initialized again because
//!    `filled` is already 0.
//! 3. `DirectOut` writes into buffers private to the thread executing the
//!    superstep — the serial loop's, or one gang worker's on a fused step,
//!    whose plan proved every payload stays in the worker's shard — so no
//!    other thread is involved and no barrier orders anything. It never
//!    trusts the plan's layout or the body's send count: every write is
//!    bounds-checked against the VP range `[base, base + len)` of its
//!    arena and its destination's planned slot range (disjoint ranges ⇒
//!    each slot written at most once), and the engine compares the written
//!    total against the total it sized the arena for *before*
//!    `commit_write`, so a slab is only ever published fully initialized.
//!    On the mismatch path (a body that sent more or fewer payloads than
//!    its route declares) nothing is committed; written payloads are
//!    leaked (never dropped, never re-observed), bounded by one
//!    superstep's traffic.
#![allow(unsafe_code)]

use crate::program::Envelope;
use crate::shard::lock;
use nob_core::ModelError;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Range, RangeFull};
use std::sync::{Mutex, MutexGuard};

/// Checked increment of a per-destination payload count. A wrapped `u32`
/// count would mis-size the write arena and send the unsafe scatter out of
/// bounds, and a silently *capped* count would corrupt the counting-sort
/// offsets downstream — so hitting the design limit is a [`ModelError`],
/// surfaced like any other model violation, never a saturation.
#[inline]
pub(crate) fn bump_count(count: &mut u32) -> Result<(), ModelError> {
    *count = count.checked_add(1).ok_or(ModelError::BadParameter {
        what: "dst_counts",
        reason: "superstep exceeds the 2^32 - 1 messages-per-destination design limit",
    })?;
    Ok(())
}

/// Names of the fault-injection edges owned by this module: the
/// per-destination counting pass feeding [`bump_count`] and the arena
/// (re)growth in [`Arena::prepare_write`]. Both executors call
/// [`fault_edge`] with these right before entering the edge, so the chaos
/// suite can prove that a failure while sizing or growing the arenas rides
/// the normal abort protocol (no partially committed arena is ever read).
pub(crate) const FAULT_BUMP_COUNT: &str = "mailbox:bump_count";
/// See [`FAULT_BUMP_COUNT`].
pub(crate) const FAULT_PREPARE_WRITE: &str = "mailbox:prepare_write";

/// Fault-injection check at one of this module's instrumented edges:
/// delegates to the run's [`nob_core::fault::FaultPlan`] when one is armed;
/// a run without a plan pays a single `Option` discriminant test.
#[inline]
pub(crate) fn fault_edge(
    faults: Option<&nob_core::fault::FaultPlan>,
    site: &'static str,
    shard: usize,
    superstep: usize,
) -> Result<(), ModelError> {
    match faults {
        Some(plan) => plan.check(site, shard, superstep),
        None => Ok(()),
    }
}

/// One half of the double buffer: a message slab grouped by destination VP.
pub(crate) struct Arena<M> {
    slab: Vec<MaybeUninit<M>>,
    /// Half-open ranges: VP `r`'s inbox is `slab[offsets[r] .. offsets[r+1]]`.
    offsets: Vec<u32>,
    /// Initialized prefix length of `slab` (invariant 1).
    filled: usize,
    /// `Some(k)` when `offsets` currently holds the affine prefix sum of a
    /// uniform per-destination count `k` (`offsets[d] = d * k`), letting
    /// [`Arena::prepare_write_uniform`] skip rebuilding an unchanged table.
    /// Any general prepare invalidates it.
    uniform_k: Option<u32>,
}

impl<M> Arena<M> {
    pub(crate) fn new(v: usize) -> Self {
        Arena { slab: Vec::new(), offsets: vec![0; v + 1], filled: 0, uniform_k: Some(0) }
    }

    /// Heap footprint of the message slab in bytes (capacity, not fill) —
    /// the double buffer's high-water memory signal, recorded as the
    /// [`nob_core::telemetry::Counter::ArenaBytes`] gauge when a worker
    /// retires a run with telemetry armed.
    pub(crate) fn slab_bytes(&self) -> u64 {
        (self.slab.capacity() * std::mem::size_of::<M>()) as u64
    }

    /// Hands the initialized prefix and the offset table to the read phase,
    /// transferring ownership of the messages to the inboxes the engine will
    /// carve out of the returned slice (invariant 2).
    pub(crate) fn take_read(&mut self) -> (&mut [MaybeUninit<M>], &[u32]) {
        let filled = std::mem::replace(&mut self.filled, 0);
        (&mut self.slab[..filled], &self.offsets)
    }

    /// Rebuilds the offset table from per-destination counts (prefix sum)
    /// and returns the total; the slab is grown to fit. Also leaves
    /// `cursors[d] = offsets[d]` ready for the scatter, and **zeroes
    /// `counts` as it consumes them** — fused into the prefix-sum pass so
    /// the engine never pays a separate `O(v)` clear per superstep (sparse
    /// supersteps of 853-step folded sorts used to pay a full `fill(0)`
    /// sweep on top of this loop).
    pub(crate) fn prepare_write(&mut self, counts: &mut [u32], cursors: &mut [u32]) -> usize {
        debug_assert_eq!(self.filled, 0, "arena overwritten while holding messages");
        self.uniform_k = None;
        let v = counts.len();
        debug_assert_eq!(self.offsets.len(), v + 1);
        // Accumulate in u64 and check the fit: a wrapped u32 offset table
        // would send the unsafe scatter out of bounds, so an over-capacity
        // superstep must fail loudly instead (2^32 messages per superstep is
        // the arena's design limit).
        let mut acc = 0u64;
        for d in 0..v {
            self.offsets[d] = acc as u32;
            cursors[d] = acc as u32;
            acc += u64::from(counts[d]);
            counts[d] = 0;
        }
        // allow-panic: release-mode hard guard — a saturated per-destination
        // count (u32::MAX) must fail here rather than under-size the slab
        // and send the unsafe scatter out of bounds.
        assert!(acc < u64::from(u32::MAX), "superstep exceeds the 2^32 - 1 message design limit");
        self.offsets[v] = acc as u32;
        let total = acc as usize;
        self.reserve(total);
        total
    }

    /// [`Arena::prepare_write`] with the per-destination counts supplied by
    /// a closure instead of a materialized slice: the layout fast path of
    /// planned supersteps reads counts straight from an `O(1)`
    /// [`crate::plan::PlanLayout`] summary, skipping both the route
    /// enumeration that would fill a counts vector and the zeroing contract
    /// that comes with it (no counts slice is touched, so the caller's
    /// all-zero `dst_counts` invariant is trivially preserved).
    pub(crate) fn prepare_write_counts(
        &mut self,
        count_of: impl Fn(usize) -> u32,
        cursors: &mut [u32],
    ) -> usize {
        debug_assert_eq!(self.filled, 0, "arena overwritten while holding messages");
        self.uniform_k = None;
        let v = cursors.len();
        debug_assert_eq!(self.offsets.len(), v + 1);
        // Same u64 accumulation + fit check as `prepare_write`: a wrapped
        // u32 offset table would send the unsafe scatter out of bounds.
        let mut acc = 0u64;
        for (d, cursor) in cursors.iter_mut().enumerate() {
            self.offsets[d] = acc as u32;
            *cursor = acc as u32;
            acc += u64::from(count_of(d));
        }
        // allow-panic: release-mode hard guard — a wrapped u32 offset table
        // would send the unsafe scatter out of bounds.
        assert!(acc < u64::from(u32::MAX), "superstep exceeds the 2^32 - 1 message design limit");
        self.offsets[v] = acc as u32;
        let total = acc as usize;
        self.reserve(total);
        total
    }

    /// [`Arena::prepare_write_counts`] specialized to a uniform
    /// per-destination count `k` (`offsets[d] = d * k`): the affine table
    /// is rebuilt only when `k` changed since this arena's last uniform
    /// prepare — pipelines of same-shape planned steps (butterflies,
    /// shuffles, transposes) pay one cursor-reset `memcpy` per superstep
    /// instead of a loop-carried prefix sum over both tables.
    /// `cursors` is `None` when the caller delivers through the unit-layout
    /// seen-bitmap (no cursor table consumed that superstep).
    pub(crate) fn prepare_write_uniform(&mut self, k: u32, cursors: Option<&mut [u32]>) -> usize {
        debug_assert_eq!(self.filled, 0, "arena overwritten while holding messages");
        let v = self.offsets.len() - 1;
        // Same release-mode fit check as `prepare_write` — a wrapped u32
        // offset table would send the unsafe scatter out of bounds.
        // allow-panic: the hard guard must survive release builds.
        let acc = v as u64 * u64::from(k);
        assert!(acc < u64::from(u32::MAX), "superstep exceeds the 2^32 - 1 message design limit");
        if self.uniform_k != Some(k) {
            for (d, o) in self.offsets.iter_mut().enumerate() {
                *o = d as u32 * k;
            }
            self.uniform_k = Some(k);
        }
        if let Some(cursors) = cursors {
            debug_assert_eq!(cursors.len(), v);
            cursors.copy_from_slice(&self.offsets[..v]);
        }
        let total = acc as usize;
        self.reserve(total);
        total
    }

    /// The scatter's working views: the first `total` slab slots (about to
    /// be filled) and the offset table built by [`Arena::prepare_write`].
    pub(crate) fn split_for_scatter(&mut self, total: usize) -> (&mut [MaybeUninit<M>], &[u32]) {
        (&mut self.slab[..total], &self.offsets)
    }

    /// Marks `total` slots as initialized after a completed scatter.
    #[inline]
    pub(crate) fn commit_write(&mut self, total: usize) {
        debug_assert!(total <= self.slab.len());
        self.filled = total;
    }

    /// Grows the slab to hold `total` messages (never shrinks it). Every
    /// prepare calls this for its own superstep; a run that knows its
    /// largest superstep up front — the serial loop, from the plans — calls
    /// it once before the first, so the slab is allocated at its final size
    /// instead of being re-grown step by step inside the job.
    pub(crate) fn reserve(&mut self, total: usize) {
        if self.slab.len() < total {
            self.slab.resize_with(total, MaybeUninit::uninit);
        }
    }

    /// Re-targets a pooled arena at a machine of `v` VPs for the next job:
    /// any still-owned messages are dropped (a finished run leaves its final
    /// superstep's sends undelivered; a failed one may leave a whole
    /// committed arena), the offset table is rebuilt all-zero — the state
    /// [`Arena::new`] establishes and the first `take_read` of a run relies
    /// on to carve empty inboxes — and the slab keeps its high-water
    /// capacity, so warm same-shape jobs allocate nothing here.
    pub(crate) fn recycle(&mut self, v: usize) {
        for slot in &mut self.slab[..self.filled] {
            // SAFETY: invariant 1 — the prefix is initialized and owned.
            unsafe { slot.assume_init_drop() };
        }
        self.filled = 0;
        self.offsets.clear();
        self.offsets.resize(v + 1, 0);
        self.uniform_k = Some(0);
    }
}

impl<M> Drop for Arena<M> {
    fn drop(&mut self) {
        // Drop messages sent by the final superstep (never delivered), like
        // the legacy engine's inbox Vecs did on drop.
        for slot in &mut self.slab[..self.filled] {
            // SAFETY: invariant 1 — the prefix is initialized and owned.
            unsafe { slot.assume_init_drop() };
        }
        self.filled = 0;
    }
}

enum InboxRepr<'a, M> {
    /// View into an arena slab; `buf[start..end]` is initialized and owned.
    Slab { buf: &'a mut [MaybeUninit<M>], start: usize, end: usize },
    /// Compatibility backing used by the reference engine: owns the messages
    /// outright (front/back consumption are both O(1) on `vec::IntoIter`).
    Owned(std::vec::IntoIter<M>),
}

/// The messages delivered to one VP at the start of a superstep.
///
/// Behaves like the `Vec<M>` inbox it replaces — `pop` takes the most
/// recently delivered message, `drain(..)` consumes front to back, and
/// anything left over is discarded when the superstep ends — but reads
/// directly from the engine's flat mailbox arena.
///
/// Delivery order is part of the contract, the same on every path
/// (the reference engine and its folding, serial, sharded, fused or not,
/// planned or dynamic):
/// messages arrive by ascending source VP, and one source's messages in the
/// order it sent them. A static algorithm may therefore name a message by
/// its position in [`Inbox::as_slice`] instead of by a tag it carries.
pub struct Inbox<'a, M> {
    repr: InboxRepr<'a, M>,
}

impl<'a, M> Inbox<'a, M> {
    /// Wraps a fully initialized slab segment (engine-internal).
    ///
    /// SAFETY contract (upheld by the engine): every slot of `buf` is
    /// initialized, and this inbox is the unique owner of those messages.
    pub(crate) fn over_slab(buf: &'a mut [MaybeUninit<M>]) -> Self {
        let end = buf.len();
        Inbox { repr: InboxRepr::Slab { buf, start: 0, end } }
    }

    /// Takes ownership of a vector's messages (reference engine). The
    /// vector's buffer is consumed — the reference engine pays one
    /// allocation per delivered-to VP per superstep, like the legacy engine
    /// paid for its per-VP outboxes.
    pub(crate) fn over_vec(buf: &mut Vec<M>) -> Self {
        Inbox { repr: InboxRepr::Owned(std::mem::take(buf).into_iter()) }
    }

    /// Number of unconsumed messages.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            InboxRepr::Slab { start, end, .. } => end - start,
            InboxRepr::Owned(it) => it.len(),
        }
    }

    /// Whether every delivered message has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes the most recently delivered message, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<M> {
        match &mut self.repr {
            InboxRepr::Slab { buf, start, end } => {
                if start == end {
                    None
                } else {
                    *end -= 1;
                    // SAFETY: buf[start..end] initialized & owned; the slot
                    // leaves the owned range before being read, exactly once.
                    Some(unsafe { buf[*end].assume_init_read() })
                }
            }
            InboxRepr::Owned(it) => it.next_back(),
        }
    }

    /// Consumes all messages front to back (delivery order: ascending source
    /// VP, then send order). Messages not iterated are still removed, like
    /// `Vec::drain`.
    #[inline]
    pub fn drain(&mut self, _: RangeFull) -> Drain<'_, 'a, M> {
        Drain { inbox: self }
    }

    /// The unconsumed messages as a slice, front (oldest) first.
    pub fn as_slice(&self) -> &[M] {
        match &self.repr {
            InboxRepr::Slab { buf, start, end } => {
                // SAFETY: buf[start..end] is initialized; MaybeUninit<M> is
                // layout-compatible with M.
                unsafe {
                    std::slice::from_raw_parts(buf.as_ptr().add(*start).cast::<M>(), end - start)
                }
            }
            InboxRepr::Owned(it) => it.as_slice(),
        }
    }

    /// Iterates the unconsumed messages without removing them.
    pub fn iter(&self) -> std::slice::Iter<'_, M> {
        self.as_slice().iter()
    }

    /// Discards all unconsumed messages.
    pub fn clear(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<M> Drop for Inbox<'_, M> {
    fn drop(&mut self) {
        // Undelivered messages are discarded at the superstep boundary.
        self.clear();
    }
}

/// Front-to-back consuming iterator over an [`Inbox`].
pub struct Drain<'i, 'a, M> {
    inbox: &'i mut Inbox<'a, M>,
}

impl<M> Iterator for Drain<'_, '_, M> {
    type Item = M;
    fn next(&mut self) -> Option<M> {
        match &mut self.inbox.repr {
            InboxRepr::Slab { buf, start, end } => {
                if start == end {
                    None
                } else {
                    let i = *start;
                    *start += 1;
                    // SAFETY: as in `pop`; the slot leaves the owned range
                    // before being read, exactly once.
                    Some(unsafe { buf[i].assume_init_read() })
                }
            }
            InboxRepr::Owned(it) => it.next(),
        }
    }
}

impl<M> Drop for Drain<'_, '_, M> {
    fn drop(&mut self) {
        // Vec::drain semantics: un-iterated messages are removed too.
        self.inbox.clear();
    }
}

/// The send side of one chunk of consecutive VPs, reused across
/// supersteps: the staging outbox of dynamic steps and the direct writer of
/// planned ones.
pub(crate) struct ChunkStage<M> {
    /// Contiguous `(dst, envelope)` pairs in send order.
    pub(crate) outbox: crate::program::Outbox<M>,
    /// `vp_ends[i]` = end index (into `outbox.msgs`) of the messages sent by
    /// the chunk's `i`-th VP.
    pub(crate) vp_ends: Vec<u32>,
    /// The direct writer the engine arms for one planned superstep and
    /// takes back after it; `None` between planned supersteps.
    pub(crate) direct: Option<DirectSink<M>>,
}

impl<M> ChunkStage<M> {
    pub(crate) fn new(chunk_vps: usize) -> Self {
        ChunkStage {
            outbox: crate::program::Outbox::new(),
            vp_ends: Vec::with_capacity(chunk_vps),
            direct: None,
        }
    }

    pub(crate) fn reset(&mut self) {
        self.outbox.reset();
        self.vp_ends.clear();
    }

    /// The VP to attribute an in-flight closure panic to, disarming any
    /// direct writer left armed by the unwind (engine-internal; called on
    /// the `catch_unwind` failure path only).
    pub(crate) fn panic_vp(&mut self) -> usize {
        match self.direct.take() {
            Some(d) => d.current_vp(),
            None => self.outbox.cur_vp,
        }
    }
}

/// Serial counting-sort scatter: drains every staged message in ascending
/// source order into its destination's slab range. Stable, so per-inbox
/// delivery order matches the legacy nested delivery loop exactly.
pub(crate) fn route_serial<M>(
    stage: &mut ChunkStage<M>,
    cursors: &mut [u32],
    slab: &mut [MaybeUninit<M>],
) {
    for (dst, env) in stage.outbox.msgs.drain(..) {
        if let Envelope::Data(m) = env {
            let cur = &mut cursors[dst as usize];
            slab[*cur as usize].write(m);
            *cur += 1;
        }
    }
    stage.vp_ends.clear();
}

/// The direct-write scatter of a *planned* superstep: lets VP closures write
/// payloads straight into the destination arena slot, replacing the staging
/// copy and the counting sort of the dynamic serial path.
///
/// Armed in the engine's [`ChunkStage`] for the duration of one planned
/// superstep (raw pointers into the engine's write slab, cursor and offset
/// tables — all sized and fixed before installation). The arena holds the
/// inboxes of the VPs `[base, base + len)`: the whole machine on the serial
/// loop, one worker's shard on a fused step. A stable
/// counting sort assigns slot `cursors[d]++` to each message in send order,
/// which is exactly what this writer does online, so per-inbox delivery
/// order is identical to the staged scatter's.
///
/// # Safety model
///
/// The *declared route* sized the destination ranges and names every
/// destination written, but the *closure* decides how many payloads it
/// sends — the two can disagree (a mis-declared step). Soundness never
/// depends on the declaration being honest:
///
/// * every write is bounds-checked against the arena's VP range and its
///   destination's planned slot range (`cursors[d] < offsets[d+1]`), so
///   writes stay inside the slab and no slot is written twice;
/// * the engine compares the total written count against the plan before
///   committing the arena, so an under-filled slab (uninitialized slots) is
///   reported as a [`nob_core::ModelError::PlanMismatch`] instead of ever
///   being published to inboxes.
///
/// Together these make every committed slab fully initialized with each
/// slot written exactly once. On the error path nothing is committed; the
/// written payloads are leaked (not dropped) — safe, and bounded by one
/// superstep's traffic.
pub(crate) struct DirectOut<M> {
    slab: *mut MaybeUninit<M>,
    /// The arena's VPs are `[base, base + 2^log_len)`.
    base: usize,
    log_len: u32,
    cursors: *mut u32,
    /// Offsets table (`len + 1` entries): destination `base + d` owns slots
    /// `[offsets[d], offsets[d+1])`.
    limits: *const u32,
    /// Non-zero when the offsets table is the affine prefix sum of a
    /// uniform per-destination count `k` (`offsets[d] = d * k`): slot
    /// limits are then computed as `(d + 1) * k` instead of loaded, saving
    /// one scattered table read per payload on the fused fast path.
    uniform_k: u32,
    /// Unit-layout fast path (`uniform_k == 1`): a zeroed `len`-bit map the
    /// engine lends for the superstep. The slot for `dst` is exactly
    /// `dst − base`, so delivery test-and-sets one L1-resident bit instead
    /// of read-modify-writing the `O(v)`-byte cursor table — one scattered
    /// cache miss per payload less once `v` outgrows the cache. A repeated
    /// destination finds its bit set (same fault as a cursor at its limit),
    /// and `finish`'s written-total gate still catches starved
    /// destinations, so drift detection is bit-for-bit the cursor policy's.
    bits: Option<*mut u64>,
    core: DirectCore,
}

/// State shared by both planned direct writers — [`DirectOut`] (one arena)
/// and [`CrossOut`] (cross-shard): the written total, the VP whose sends
/// are in progress and the first recorded fault. One implementation of the
/// send preamble (fault short-circuit, machine-range check), so the two
/// paths' checks cannot drift apart.
pub(crate) struct DirectCore {
    v: usize,
    /// Payload messages written so far (whole superstep).
    written: u64,
    cur_vp: usize,
    /// First exact-check failure: `(vp, reason)`.
    fault: Option<(usize, &'static str)>,
}

impl DirectCore {
    fn new(v: usize) -> Self {
        DirectCore { v, written: 0, cur_vp: 0, fault: None }
    }

    #[inline]
    fn fail(&mut self, reason: &'static str) {
        if self.fault.is_none() {
            self.fault = Some((self.cur_vp, reason));
        }
    }

    /// The shared preamble of a payload send: short-circuits on a recorded
    /// fault (drop quietly, the run aborts) and checks the machine range.
    /// Returns whether the write may proceed.
    #[inline]
    fn admit_data(&mut self, dst: usize) -> bool {
        if self.fault.is_some() {
            return false;
        }
        if dst >= self.v {
            self.fail("message destination out of machine range");
            return false;
        }
        true
    }
}

// SAFETY: the raw pointers target buffers owned by the serial loop or by
// one gang worker, only ever accessed from the thread executing the
// superstep; the `ChunkStage::direct` slot of any stage that crosses threads
// is `None` (a `DirectOut` is armed and taken back within one planned
// superstep on one thread). `M: Send` because payloads are moved through
// the slab.
unsafe impl<M: Send> Send for DirectOut<M> {}

impl<M> DirectOut<M> {
    /// Arms a writer over the engine's scatter state for one superstep.
    ///
    /// SAFETY contract (upheld by the engine): the three buffers outlive the
    /// superstep, are not accessed through any other path while the writer
    /// is installed, `cursors` (one entry per VP of `[base, base + len)`,
    /// `len = cursors.len()`) was initialized to the offsets prefix, and
    /// `limits` is the matching `len + 1`-entry offsets table; `v` is the
    /// machine size. `uniform_k`, when non-zero, asserts the offsets table
    /// is the affine prefix sum `offsets[d] = d * uniform_k` (the engine
    /// passes the plan's detected [`crate::plan::PlanLayout::Uniform`]
    /// count); 0 means general table limits. `bits` (unit layouts only,
    /// `uniform_k == 1`) lends an all-zero `len`-bit seen-map that replaces
    /// the cursor table for the superstep; it must outlive the writer like
    /// the buffers do.
    pub(crate) fn new(
        slab: &mut [MaybeUninit<M>],
        cursors: &mut [u32],
        limits: &[u32],
        uniform_k: u32,
        bits: Option<&mut [u64]>,
        base: usize,
        v: usize,
    ) -> Self {
        let len = cursors.len();
        debug_assert!(len.is_power_of_two() && base.is_multiple_of(len) && base + len <= v);
        debug_assert_eq!(limits.len(), len + 1);
        debug_assert_eq!(slab.len(), limits[len] as usize, "slab sized to the offsets");
        debug_assert!(
            uniform_k == 0 || limits.iter().enumerate().all(|(d, &o)| o == d as u32 * uniform_k),
            "uniform_k disagrees with the offsets table"
        );
        let bits = bits.map(|b| {
            debug_assert!(uniform_k == 1, "seen-bitmap mode requires a unit layout");
            debug_assert!(b.len() * 64 >= len && b.iter().all(|&w| w == 0));
            b.as_mut_ptr()
        });
        DirectOut {
            slab: slab.as_mut_ptr(),
            base,
            log_len: len.trailing_zeros(),
            cursors: cursors.as_mut_ptr(),
            limits: limits.as_ptr(),
            uniform_k,
            bits,
            core: DirectCore::new(v),
        }
    }

    /// Delivers a payload message into its planned slot.
    #[inline]
    pub(crate) fn send(&mut self, dst: usize, msg: M) {
        if !self.core.admit_data(dst) {
            return;
        }
        let d = dst.wrapping_sub(self.base);
        if d >> self.log_len != 0 {
            // The declared route keeps a fused step's payloads inside the
            // shard, so a destination outside the arena is a divergence
            // from it (unreachable on the serial loop, whose arena is the
            // machine).
            self.core.fail("send leaves the declared route's shard cluster");
            return;
        }
        // SAFETY: d < len bounds the bit/cursor/limit accesses; the seen-bit
        // (unit layouts) or cursor check bounds the slab write inside the
        // destination's planned range (ranges are disjoint and within the
        // slab by construction of the offsets prefix sum; for unit layouts
        // the range is exactly slot `d`).
        unsafe {
            if let Some(bits) = self.bits {
                let word = bits.add(d >> 6);
                let mask = 1u64 << (d & 63);
                if *word & mask != 0 {
                    self.core.fail("more payload messages to a destination than planned");
                    return;
                }
                *word |= mask;
                (*self.slab.add(d)).write(msg);
            } else {
                let cur = *self.cursors.add(d);
                let limit = if self.uniform_k != 0 {
                    (d as u32 + 1) * self.uniform_k
                } else {
                    *self.limits.add(d + 1)
                };
                if cur >= limit {
                    self.core.fail("more payload messages to a destination than planned");
                    return;
                }
                debug_assert!(cur < *self.limits.add(1 << self.log_len));
                (*self.slab.add(cur as usize)).write(msg);
                *self.cursors.add(d) = cur + 1;
            }
        }
        self.core.written += 1;
    }

    /// Disarms the writer: `(payloads written, first fault)`. The engine
    /// must refuse to commit the arena unless the fault is `None` and the
    /// written count equals the total it sized the arena for.
    pub(crate) fn finish(self) -> (u64, Option<(usize, &'static str)>) {
        (self.core.written, self.core.fault)
    }
}

/// The direct writer armed in a [`ChunkStage`] for one planned superstep:
/// into one arena of the executing thread, or into out-lanes across shards. A declared
/// body's [`crate::program::Slots`] and a captured plan's replay write
/// through it and cannot observe the difference.
pub(crate) enum DirectSink<M> {
    /// Every payload lands in the executing thread's own arena
    /// ([`DirectOut`]): the whole machine's on the serial loop, the
    /// worker's shard's on a fused step.
    Local(DirectOut<M>),
    /// Cross-shard sends into the worker's out-lanes, handed over at the
    /// barrier ([`CrossOut`]).
    Cross(CrossOut<M>),
}

impl<M> DirectSink<M> {
    #[inline]
    fn core_mut(&mut self) -> &mut DirectCore {
        match self {
            DirectSink::Local(d) => &mut d.core,
            DirectSink::Cross(d) => &mut d.core,
        }
    }

    /// Starts the given VP's sends (fault and panic attribution).
    #[inline]
    pub(crate) fn begin_vp(&mut self, vp: usize) {
        self.core_mut().cur_vp = vp;
    }

    /// The VP whose sends are in progress (panic attribution).
    #[inline]
    pub(crate) fn current_vp(&self) -> usize {
        match self {
            DirectSink::Local(d) => d.core.cur_vp,
            DirectSink::Cross(d) => d.core.cur_vp,
        }
    }

    /// Records a send that disagrees with the step's declaration, at the
    /// current VP; the first one recorded is the superstep's error.
    #[inline]
    pub(crate) fn fail(&mut self, reason: &'static str) {
        self.core_mut().fail(reason);
    }

    /// Delivers a payload message: into its planned slot of the executing
    /// thread's own arena, or into the out-lane of its destination shard,
    /// depending on the armed writer.
    ///
    /// Kept out of line, one copy per message type: a declared step's body
    /// inlines its writer's `send` — the route's destination arithmetic —
    /// and stays small enough for its chunk kernel to inline the body in
    /// turn. With this inlined as well, bodies grew past that, and a body
    /// the kernel calls per VP ran the binary-exchange FFT at twice the
    /// time per job.
    #[inline(never)]
    pub(crate) fn send(&mut self, dst: usize, msg: M) {
        match self {
            DirectSink::Local(d) => d.send(dst, msg),
            DirectSink::Cross(d) => d.send(dst, msg),
        }
    }
}

/// The cross-shard writer of one worker for one planned superstep: the
/// sharded counterpart of [`DirectOut`]. It writes into no arena. Each
/// payload goes, in send order, into the worker's own out-lane for its
/// destination shard (its own shard included); the executor hands the
/// lanes over at the superstep's barrier, and each receiver drains its
/// incoming lanes into its own write arena, sized from the plan. Plain
/// `Vec` pushes: no `unsafe`, and no lock per send.
///
/// It keeps the send preamble of [`DirectCore`] — the fault short-circuit
/// and the machine-range check — plus the cluster-span check: a send
/// outside the superstep's shard cluster (impossible while destinations
/// come from the route, which was cluster-proven at compile time) faults.
/// Payloads travel as `ManuallyDrop<M>`: a lane abandoned by a rejected
/// superstep keeps them until the executor's next reset drops them (see
/// [`Lane`]); they are never delivered.
pub(crate) struct CrossOut<M> {
    /// One out-lane per shard of the gang; only the span's are written.
    lanes: Vec<Lane<ManuallyDrop<M>>>,
    /// Shard cluster of the superstep.
    span: Range<usize>,
    shard_shift: u32,
    core: DirectCore,
}

impl<M> CrossOut<M> {
    /// Arms a writer over the worker's (empty) out-lanes for a superstep
    /// whose shard cluster is `span`; `v` is the machine size.
    pub(crate) fn new(
        lanes: Vec<Lane<ManuallyDrop<M>>>,
        span: Range<usize>,
        shard_shift: u32,
        v: usize,
    ) -> Self {
        debug_assert!(span.end <= lanes.len() && lanes.iter().all(|l| l.dsts.is_empty()));
        CrossOut { lanes, span, shard_shift, core: DirectCore::new(v) }
    }

    /// Stages a payload message in its destination shard's out-lane
    /// (called through [`DirectSink::send`], which is out of line).
    #[inline]
    pub(crate) fn send(&mut self, dst: usize, msg: M) {
        if !self.core.admit_data(dst) {
            return;
        }
        let ds = dst >> self.shard_shift;
        if !self.span.contains(&ds) {
            self.core.fail("send leaves the declared route's shard cluster");
            return;
        }
        self.lanes[ds].push(dst as u32, ManuallyDrop::new(msg));
        self.core.written += 1;
    }

    /// Disarms the writer: `(out-lanes, payloads written, first fault)`.
    /// The executor hands the lanes over only if the fault is `None` and
    /// the written count equals the worker's declared payload total.
    #[allow(clippy::type_complexity)]
    pub(crate) fn finish(self) -> (Vec<Lane<ManuallyDrop<M>>>, u64, Option<(usize, &'static str)>) {
        (self.lanes, self.core.written, self.core.fault)
    }
}

/// One message lane: the staged payloads `T` of a single (source shard →
/// destination shard) pair for the current superstep, in send order.
/// Dummies never enter one: their sender has metered them, and nothing
/// delivers them. The executor's lanes carry `ManuallyDrop<M>`, so a lane
/// has no drop glue to put into the kernels that fill it: its payloads
/// are dropped only by a drain or by [`Lane::clear`], and a lane dropped
/// with payloads in it leaks them.
///
/// Destinations and payloads are parallel sequences, so the gather's
/// counting scan streams through 4-byte destinations whatever the message
/// type. Both vectors grow to the pair's high-water traffic and are
/// recycled, so steady-state supersteps push within capacity and allocate
/// nothing.
#[derive(Debug)]
pub(crate) struct Lane<T> {
    /// Destination VP (global id) of each staged payload.
    pub(crate) dsts: Vec<u32>,
    payloads: Vec<T>,
}

impl<T> Lane<T> {
    pub(crate) fn new() -> Self {
        Lane { dsts: Vec::new(), payloads: Vec::new() }
    }

    /// Stages a payload message for VP `dst`.
    #[inline]
    pub(crate) fn push(&mut self, dst: u32, msg: T) {
        self.dsts.push(dst);
        self.payloads.push(msg);
    }

    /// Makes room for `n` more staged messages.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.dsts.reserve(n);
        self.payloads.reserve(n);
    }

    /// Number of staged messages.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.dsts.len()
    }

    /// Drains every staged message in send order, invoking
    /// `deliver(dst, payload)` for each, then clears the lane (capacity
    /// kept).
    pub(crate) fn drain_deliveries(&mut self, mut deliver: impl FnMut(u32, T)) {
        for (&dst, m) in self.dsts.iter().zip(self.payloads.drain(..)) {
            deliver(dst, m);
        }
        self.dsts.clear();
    }
}

impl<M> Lane<ManuallyDrop<M>> {
    /// Empties the lane, dropping its payloads and keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.dsts.clear();
        for m in self.payloads.drain(..) {
            drop(ManuallyDrop::into_inner(m));
        }
    }
}

/// A `shards × shards` matrix of message [`Lane`]s, row-major by source
/// shard, shared by all executor workers.
///
/// A lane changes hands at the barrier, as a superstep's messages do in
/// `M(v)`: lane `(s, d)` is filled by worker `s` before a barrier — by
/// swapping in its out-lane after a dynamic superstep's flush or a
/// cross-shard planned exec — and drained by worker `d` after it, and the
/// executor's barrier separates the two phases. So the lock of a lane is
/// never contended; it makes the handover checkable instead of argued. A
/// hand-over locks each non-empty lane once, a drain each lane of its span
/// once (a dynamic gather twice: it counts, then drains), never per
/// message.
pub(crate) struct LaneGrid<T> {
    lanes: Vec<Mutex<Lane<T>>>,
    shards: usize,
}

impl<T> LaneGrid<T> {
    pub(crate) fn new(shards: usize) -> Self {
        LaneGrid { lanes: (0..shards * shards).map(|_| Mutex::new(Lane::new())).collect(), shards }
    }

    /// The lane `src → dst`, locked.
    #[inline]
    pub(crate) fn lane(&self, src: usize, dst: usize) -> MutexGuard<'_, Lane<T>> {
        debug_assert!(src < self.shards && dst < self.shards);
        lock(&self.lanes[src * self.shards + dst])
    }
}

impl<M> LaneGrid<ManuallyDrop<M>> {
    /// Empties every lane, dropping the payloads and keeping capacities —
    /// the between-jobs reset of a pooled grid. A job that aborted
    /// mid-superstep can leave staged messages behind; clearing them here
    /// keeps them out of the next job's drains.
    pub(crate) fn clear_all(&mut self) {
        for lane in &mut self.lanes {
            lane.get_mut().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staged(msgs: &[(u32, Option<String>)]) -> ChunkStage<String> {
        let mut stage = ChunkStage::new(4);
        for (dst, payload) in msgs {
            match payload {
                Some(m) => stage.outbox.send(*dst as usize, m.clone()),
                None => stage.outbox.send_dummy(*dst as usize),
            }
        }
        stage
    }

    fn arena_contents(arena: &mut Arena<String>, v: usize) -> Vec<Vec<String>> {
        let (slab, offsets) = arena.take_read();
        let mut out = Vec::new();
        let mut rest = slab;
        for vp in 0..v {
            let len = (offsets[vp + 1] - offsets[vp]) as usize;
            let take = std::mem::take(&mut rest);
            let (mine, r) = take.split_at_mut(len);
            rest = r;
            let mut inbox = Inbox::over_slab(mine);
            out.push(inbox.drain(..).collect());
        }
        out
    }

    #[test]
    fn serial_scatter_groups_by_destination_in_source_order() {
        let v = 4;
        let mut arena: Arena<String> = Arena::new(v);
        let mut stage = staged(&[
            (2, Some("a".into())),
            (0, Some("b".into())),
            (2, None),
            (2, Some("c".into())),
            (3, Some("d".into())),
        ]);
        let mut counts = vec![0u32; v];
        for (dst, env) in &stage.outbox.msgs {
            if matches!(env, Envelope::Data(_)) {
                counts[*dst as usize] += 1;
            }
        }
        let mut cursors = vec![0u32; v];
        let total = arena.prepare_write(&mut counts, &mut cursors);
        assert_eq!(total, 4, "dummies are not delivered");
        assert!(counts.iter().all(|&c| c == 0), "prepare_write recycles the counts");
        {
            let (slab, _) = (&mut arena.slab[..total], ());
            route_serial(&mut stage, &mut cursors, slab);
        }
        arena.commit_write(total);
        assert_eq!(
            arena_contents(&mut arena, v),
            vec![vec!["b".to_string()], vec![], vec!["a".into(), "c".into()], vec!["d".into()]],
        );
    }

    #[test]
    fn lane_preserves_send_order() {
        let mut lane: Lane<String> = Lane::new();
        lane.push(9, "x".into());
        lane.push(8, "y".into());
        lane.push(9, "w".into());
        assert_eq!(lane.len(), 3);
        let mut got = Vec::new();
        lane.drain_deliveries(|dst, m| got.push((dst, m)));
        assert_eq!(got, vec![(9, "x".to_string()), (8, "y".to_string()), (9, "w".to_string())]);
        assert_eq!(lane.len(), 0, "lane recycled empty");
        // Reuse after draining: capacity path, same semantics.
        lane.push(7, "z".into());
        let mut got = Vec::new();
        lane.drain_deliveries(|dst, m| got.push((dst, m)));
        assert_eq!(got, vec![(7, "z".to_string())]);
    }

    #[test]
    fn abandoned_lane_drops_payloads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let mut grid: LaneGrid<ManuallyDrop<Tracked>> = LaneGrid::new(2);
        {
            let mut lane = grid.lane(0, 1);
            lane.push(4, ManuallyDrop::new(Tracked));
            lane.push(6, ManuallyDrop::new(Tracked));
        }
        // Traffic staged by a job that aborted: the next job's reset drops
        // it, once.
        grid.clear_all();
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
        grid.clear_all();
        drop(grid);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn inbox_pop_and_drain_follow_vec_semantics() {
        let mut backing: Vec<MaybeUninit<u64>> = (1..=4u64).map(MaybeUninit::new).collect();
        let mut inbox = Inbox::over_slab(&mut backing);
        assert_eq!(inbox.len(), 4);
        assert_eq!(inbox.pop(), Some(4));
        assert_eq!(inbox.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        let first_two: Vec<u64> = inbox.drain(..).take(2).collect();
        assert_eq!(first_two, vec![1, 2]);
        // Drain drop removed the rest, like Vec::drain.
        assert!(inbox.is_empty());
    }

    #[test]
    fn direct_out_refuses_destinations_outside_its_base_range() {
        // A writer over VPs [4, 6) of an 8-VP machine, as on a fused step of
        // shard 2 of 4. No route reaches these refusals (destinations come
        // from a compile-proven route), so only this test covers them.
        let (v, base, len) = (8, 4, 2);
        let mut arena: Arena<String> = Arena::new(len);
        let mut cursors = vec![0u32; len];
        let total = arena.prepare_write_uniform(1, Some(&mut cursors));
        let cluster = "send leaves the declared route's shard cluster";
        let machine = "message destination out of machine range";
        for (dst, reason) in [(0, cluster), (3, cluster), (6, cluster), (7, cluster), (8, machine)]
        {
            let (slab, offsets) = arena.split_for_scatter(total);
            let mut sink =
                DirectSink::Local(DirectOut::new(slab, &mut cursors, offsets, 1, None, base, v));
            sink.begin_vp(5);
            sink.send(dst, format!("to {dst}"));
            let DirectSink::Local(out) = sink else { unreachable!() };
            assert_eq!(out.finish(), (0, Some((5, reason))), "destination {dst}");
            assert_eq!(cursors, [0, 1], "destination {dst} moved a cursor");
        }
        // The refusals left every slot to its owner.
        let (slab, offsets) = arena.split_for_scatter(total);
        let mut out = DirectOut::new(slab, &mut cursors, offsets, 1, None, base, v);
        out.send(5, "b".to_string());
        out.send(4, "a".to_string());
        assert_eq!(out.finish(), (2, None));
        arena.commit_write(total);
        assert_eq!(arena_contents(&mut arena, len), [["a"], ["b"]]);
    }

    #[test]
    fn bump_count_fails_loudly_at_the_overflow_boundary() {
        // Regression: the sharded gather used to saturate these counts,
        // silently capping at u32::MAX instead of surfacing the capacity
        // violation as a ModelError.
        let mut c = u32::MAX - 2;
        assert!(bump_count(&mut c).is_ok());
        assert_eq!(c, u32::MAX - 1);
        assert!(bump_count(&mut c).is_ok());
        assert_eq!(c, u32::MAX);
        let err = bump_count(&mut c).expect_err("count past u32::MAX must error, not cap");
        assert!(matches!(err, ModelError::BadParameter { what: "dst_counts", .. }), "got {err:?}");
        assert_eq!(c, u32::MAX, "failed bump must leave the count unchanged");
    }

    #[test]
    fn undelivered_messages_are_dropped_not_leaked() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Tracked;
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let mut backing: Vec<MaybeUninit<Tracked>> =
                (0..3).map(|_| MaybeUninit::new(Tracked)).collect();
            let mut inbox = Inbox::over_slab(&mut backing);
            drop(inbox.pop());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }
}
