//! Static superstep programs: the executable form of an `M(v)` algorithm.

use crate::engine::{run_serial, GranSpec, RunOptions};
use crate::mailbox::{ChunkStage, DirectSink, Inbox};
use crate::plan::{message_fault, DeclaredRoute, Route, RouteFn, StepPlan};
use crate::shard::lock;
use nob_core::metrics::TraceBuilder;
use nob_core::model::log2_exact;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Execution context handed to a superstep closure: the identity of the VP
/// and the machine geometry (mirrors the paper's assumption that each
/// processing element knows its index `r` and the machine size `v`).
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Index of this virtual processor, `0 ≤ vp < v`.
    pub vp: usize,
    /// Number of virtual processors of the machine.
    pub v: usize,
    /// `log2 v`.
    pub log_v: u32,
    /// Input size the program was built for.
    pub n: usize,
}

impl Ctx {
    /// The segment (cluster) of size `seg` containing this VP; `seg` must
    /// divide the machine evenly. Returns `(segment index, offset within)`.
    ///
    /// # Panics
    /// Debug builds panic when `seg` is zero or does not divide `v`: a bad
    /// segment size silently mis-clusters every VP downstream, so it must
    /// fail loudly at the call site instead.
    #[inline]
    pub fn segment(&self, seg: usize) -> (usize, usize) {
        debug_assert!(
            seg > 0 && self.v.is_multiple_of(seg),
            "segment size {seg} must evenly divide the machine (v = {})",
            self.v
        );
        (self.vp / seg, self.vp % seg)
    }
}

/// Internal envelope distinguishing payload messages from the *dummy*
/// messages the paper's algorithms add to enforce wiseness. Dummies are
/// counted by the metric pipeline but never delivered to user code.
#[derive(Debug, Clone)]
pub(crate) enum Envelope<M> {
    Data(M),
    Dummy,
}

/// Staging buffer for outgoing messages of one superstep: the writer of a
/// [`Program::step`] body, which names each destination itself.
///
/// An `Outbox` is owned by the engine and **recycled across supersteps**: it
/// stages the messages of a whole chunk of VPs contiguously (`(dst,
/// envelope)` pairs in send order) so that steady-state supersteps allocate
/// nothing. Per-VP boundaries are tracked by the engine, not the outbox;
/// [`Outbox::len`]/[`Outbox::is_empty`] report the messages staged by the
/// *currently executing VP* only, preserving the semantics algorithms
/// observed when each VP had a private outbox.
pub struct Outbox<M> {
    pub(crate) msgs: Vec<(u32, Envelope<M>)>,
    pub(crate) vp_start: usize,
    /// The VP whose sends are in progress (engine-maintained; used to
    /// attribute a closure panic to the VP that unwound).
    pub(crate) cur_vp: usize,
    /// Set when a staged send named a destination beyond the `u32` design
    /// range; the message is dropped and the engine surfaces a structured
    /// error at the next phase boundary instead of panicking mid-closure.
    pub(crate) oob_dst: bool,
    /// The first VP whose declared body ([`Slots`]) sent more or fewer
    /// payloads than its route declares, with the reason; surfaced at the
    /// same boundary as `oob_dst`.
    pub(crate) mismatch: Option<(usize, &'static str)>,
}

impl<M> std::fmt::Debug for Outbox<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Outbox").field("staged", &self.msgs.len()).finish()
    }
}

impl<M> Outbox<M> {
    pub(crate) fn new() -> Self {
        Outbox { msgs: Vec::new(), vp_start: 0, cur_vp: 0, oob_dst: false, mismatch: None }
    }

    /// Marks the start of a new VP's messages (engine-internal).
    #[inline]
    pub(crate) fn begin_vp(&mut self) {
        self.vp_start = self.msgs.len();
    }

    /// Clears the staging buffer, keeping its capacity (engine-internal).
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.msgs.clear();
        self.vp_start = 0;
    }

    /// Consumes the error a phase's sends left behind, if any — a
    /// destination beyond the `u32` range, or a declared body that broke its
    /// route in step `step` (engine-internal; checked once per phase so the
    /// error rides the normal abort protocol).
    #[inline]
    pub(crate) fn take_error(&mut self, step: &'static str) -> Option<nob_core::ModelError> {
        if std::mem::take(&mut self.oob_dst) {
            return Some(nob_core::ModelError::BadParameter {
                what: "dst",
                reason: "destination id exceeds the u32 design range",
            });
        }
        let (vp, reason) = self.mismatch.take()?;
        Some(nob_core::ModelError::PlanMismatch { step, vp, reason })
    }

    /// Sends a constant-size message to VP `dst` (the paper's `send(m, q)`);
    /// it is delivered at the start of the next superstep.
    #[inline]
    pub fn send(&mut self, dst: usize, msg: M) {
        let Ok(dst) = u32::try_from(dst) else {
            self.oob_dst = true;
            return;
        };
        self.msgs.push((dst, Envelope::Data(msg)));
    }

    /// Sends a dummy message to VP `dst`: it contributes to the degree
    /// metrics (this is the paper's wiseness device) but is not delivered.
    #[inline]
    pub fn send_dummy(&mut self, dst: usize) {
        let Ok(dst) = u32::try_from(dst) else {
            self.oob_dst = true;
            return;
        };
        self.msgs.push((dst, Envelope::Dummy));
    }

    /// Number of messages staged so far by the current VP (data + dummy).
    #[inline]
    pub fn len(&self) -> usize {
        self.msgs.len() - self.vp_start
    }

    /// Whether the current VP has staged nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The writer of a declared step's body ([`Program::step_oblivious`]): it
/// has no destination parameter. [`Slots::send`] fills the VP's next
/// declared [`Route::Data`] slot and takes its destination from the step's
/// route, evaluated inline; the route's [`Route::Dummy`] slots are the
/// engine's to emit, and a body never sees them.
///
/// A body sends exactly one payload per `Data` slot of its VP, in slot
/// order. One send too many (past the VP's [`Route::End`] or its
/// `out_degree`) and one slot left unsent are both
/// [`nob_core::ModelError::PlanMismatch`]es, on every execution path.
pub struct Slots<'a, M, R> {
    route: &'a R,
    ctx: Ctx,
    /// The next slot to read.
    next: usize,
    out_degree: usize,
    to: SlotTarget<'a, M>,
}

/// Where a [`Slots`] writer's messages go.
enum SlotTarget<'a, M> {
    /// A planned step's direct writer: payloads land in their arena slots,
    /// and dummies — already in the plan's metrics — are never written.
    Direct(&'a mut DirectSink<M>),
    /// The staging outbox of every path that runs the boxed body (dynamic,
    /// the reference engine): dummies are staged at their declared
    /// positions, so traces and message logs are the declared route's.
    Staged(&'a mut Outbox<M>),
}

impl<M, R: DeclaredRoute> Slots<'_, M, R> {
    /// Sends `msg` as this VP's next declared payload; it is delivered at
    /// the start of the next superstep.
    #[inline]
    pub fn send(&mut self, msg: M) {
        let (route, ctx, out_degree) = (self.route, &self.ctx, self.out_degree);
        match &mut self.to {
            SlotTarget::Direct(sink) => {
                match next_payload(route, ctx, &mut self.next, out_degree, |_| {}) {
                    Some(dst) => sink.send(dst, msg),
                    None => sink.fail(TOO_MANY),
                }
            }
            SlotTarget::Staged(out) => {
                self.next = stage(route, *ctx, self.next, out_degree, out, msg);
            }
        }
    }
}

/// The mismatch of a send past the VP's last declared payload slot.
const TOO_MANY: &str = "more payload messages than the route declares";
/// The mismatch of a staged body that left a declared payload slot unsent.
const TOO_FEW: &str = "fewer payload messages than the route declares";

/// Reads VP `ctx.vp`'s slots from `*next` up to the next [`Route::Data`] one
/// and returns its destination, passing each dummy on the way to `dummy`;
/// `None` once the declaration is exhausted. The one walk of every
/// [`Slots`] writer and of the staged body's end.
#[inline(always)]
fn next_payload<R: DeclaredRoute>(
    route: &R,
    ctx: &Ctx,
    next: &mut usize,
    out_degree: usize,
    mut dummy: impl FnMut(usize),
) -> Option<usize> {
    while *next < out_degree {
        let k = *next;
        *next += 1;
        match route.slot(ctx, k) {
            Route::Data(dst) => return Some(dst),
            Route::Dummy(dst) => dummy(dst),
            Route::Skip => {}
            Route::End => *next = out_degree,
        }
    }
    None
}

/// [`Slots::send`] on a staging outbox, dummies staged on the way; returns
/// the next slot to read. Out of line, so that a planned kernel's inlined
/// body carries the direct path only, and passed nothing that points into
/// the writer, so a body the kernel does not inline may keep the writer's
/// fields in registers across its calls.
#[inline(never)]
fn stage<M, R: DeclaredRoute>(
    route: &R,
    ctx: Ctx,
    mut next: usize,
    out_degree: usize,
    out: &mut Outbox<M>,
    msg: M,
) -> usize {
    match next_payload(route, &ctx, &mut next, out_degree, |dst| out.send_dummy(dst)) {
        Some(dst) => out.send(dst, msg),
        None => {
            out.mismatch.get_or_insert((ctx.vp, TOO_MANY));
        }
    }
    next
}

/// The SPMD body of one superstep.
///
/// The inbox holds the messages delivered to this VP at the end of the
/// previous superstep (a view into the engine's flat mailbox arena);
/// anything not consumed is discarded when the superstep ends.
///
/// Reference-counted so that [`Program::repeat`] can schedule the same body
/// again without the algorithm rebuilding its closure.
pub type StepFn<S, M> =
    Arc<dyn Fn(&mut S, &Ctx, &mut Inbox<'_, M>, &mut Outbox<M>) + Send + Sync>;

/// The planned path's body for a whole chunk of VPs (engine-internal).
///
/// A declared step is its own kernel ([`DeclaredStep`]): the loop is
/// monomorphised with the body and the route inlined, so one dynamic call
/// covers a chunk instead of one per VP. A step whose body's concrete type
/// is gone (a captured plan) runs through [`Captured`].
pub(crate) trait ChunkKernel<S, M>: Send + Sync {
    /// Runs the step's closure for consecutive VPs `base.vp ..` — one per
    /// state — carving each VP's inbox out of the read `slab` by `offsets`
    /// and sending through the direct writer armed in `stage`. `exec` is
    /// the step's boxed body; only [`Captured`] calls it.
    fn run_chunk(
        &self,
        exec: &StepFn<S, M>,
        base: Ctx,
        states: &mut [S],
        slab: &mut [std::mem::MaybeUninit<M>],
        offsets: &[u32],
        stage: &mut ChunkStage<M>,
    );
}

/// A declared step's route and body. [`Program::step_oblivious`] builds one
/// and shares it three ways: the step's boxed body runs it on a staging
/// writer, it is the step's chunk kernel, and its route is the one the plan
/// enumerates.
struct DeclaredStep<R, F> {
    route: Arc<R>,
    body: F,
    out_degree: usize,
}

impl<R: DeclaredRoute, F> DeclaredStep<R, F> {
    /// The writer of VP `ctx.vp`, from its first slot on.
    #[inline]
    fn slots<'a, M>(&'a self, ctx: Ctx, to: SlotTarget<'a, M>) -> Slots<'a, M, R> {
        Slots { route: &*self.route, ctx, next: 0, out_degree: self.out_degree, to }
    }

    /// The step's boxed body: the body on a staging writer, then the dummies
    /// its route declares after the last payload — or a mismatch, if a
    /// payload slot was left unsent.
    fn run_staged<S, M>(
        &self,
        st: &mut S,
        ctx: &Ctx,
        inbox: &mut Inbox<'_, M>,
        out: &mut Outbox<M>,
    ) where
        F: Fn(&mut S, &Ctx, &mut Inbox<'_, M>, &mut Slots<'_, M, R>),
    {
        let mut slots = self.slots(*ctx, SlotTarget::Staged(&mut *out));
        (self.body)(st, ctx, inbox, &mut slots);
        let mut next = slots.next;
        let dummy = |dst| out.send_dummy(dst);
        if next_payload(&*self.route, ctx, &mut next, self.out_degree, dummy).is_some() {
            out.mismatch.get_or_insert((ctx.vp, TOO_FEW));
        }
    }
}

impl<S, M, R, F> ChunkKernel<S, M> for DeclaredStep<R, F>
where
    R: DeclaredRoute + Send + Sync,
    F: Fn(&mut S, &Ctx, &mut Inbox<'_, M>, &mut Slots<'_, M, R>) + Send + Sync,
{
    fn run_chunk(
        &self,
        _: &StepFn<S, M>,
        base: Ctx,
        states: &mut [S],
        slab: &mut [std::mem::MaybeUninit<M>],
        offsets: &[u32],
        stage: &mut ChunkStage<M>,
    ) {
        // The writer's state moves onto the stack for the chunk, so it
        // need not round-trip through memory the slab writes might alias.
        // No check runs between two VPs: a VP that sends too little shows
        // in the written total the caller compares after the chunk.
        let mut armed = OnStack::new(&mut stage.direct);
        let Some(sink) = armed.local.as_mut() else {
            unreachable!("the engine arms a direct writer before a planned chunk")
        };
        for_each_vp(base, states, slab, offsets, |state, ctx, inbox| {
            sink.begin_vp(ctx.vp);
            (self.body)(state, &ctx, inbox, &mut self.slots(ctx, SlotTarget::Direct(&mut *sink)));
        });
    }
}

/// The [`ChunkKernel`] of a captured plan's step. Its body sends by
/// destination, so each VP's sends are staged and compared with the
/// captured table — the plan's route — before any of them is written.
pub(crate) struct Captured {
    route: RouteFn,
    out_degree: usize,
}

impl Captured {
    /// Writes the staged sends of VP `ctx.vp` through `sink` while they
    /// match the captured table; whether all of them did and none of the
    /// table was left unsent. Empties `out` either way.
    fn forward<M>(&self, ctx: &Ctx, out: &mut Outbox<M>, sink: &mut DirectSink<M>) -> bool {
        let slot = |k: usize| if k < self.out_degree { self.route.slot(ctx, k) } else { Route::End };
        let sent = out.msgs.len();
        let oob = std::mem::take(&mut out.oob_dst);
        for (k, (dst, env)) in out.msgs.drain(..).enumerate() {
            match (slot(k), env) {
                (Route::Data(d), Envelope::Data(m)) if d == dst as usize => sink.send(d, m),
                (Route::Dummy(d), Envelope::Dummy) if d == dst as usize => {}
                _ => return false,
            }
        }
        !oob && slot(sent) == Route::End
    }
}

impl<S, M> ChunkKernel<S, M> for Captured {
    fn run_chunk(
        &self,
        exec: &StepFn<S, M>,
        base: Ctx,
        states: &mut [S],
        slab: &mut [std::mem::MaybeUninit<M>],
        offsets: &[u32],
        stage: &mut ChunkStage<M>,
    ) {
        let ChunkStage { outbox, direct, .. } = stage;
        let Some(sink) = direct.as_mut() else {
            unreachable!("the engine arms a direct writer before a planned chunk")
        };
        for_each_vp(base, states, slab, offsets, |state, ctx, inbox| {
            sink.begin_vp(ctx.vp);
            outbox.reset();
            exec(state, &ctx, inbox, outbox);
            if !self.forward(&ctx, outbox, sink) {
                sink.fail("sends disagree with the captured route");
            }
        });
    }
}

/// The VP loop of every chunk: calls `body` for consecutive VPs `base.vp
/// ..` — one per state — with each VP's inbox carved out of the read `slab`
/// by `offsets`. Shared by the planned kernels and the dynamic path, on the
/// serial loop (one chunk covering the machine) and the sharded executor's
/// workers, so inbox carving cannot drift between them.
#[inline(always)]
pub(crate) fn for_each_vp<S, M>(
    base: Ctx,
    states: &mut [S],
    slab: &mut [std::mem::MaybeUninit<M>],
    offsets: &[u32],
    mut body: impl FnMut(&mut S, Ctx, &mut Inbox<'_, M>),
) {
    debug_assert_eq!((offsets[states.len()] - offsets[0]) as usize, slab.len());
    let mut slab_rest = slab;
    for (i, state) in states.iter_mut().enumerate() {
        let len = (offsets[i + 1] - offsets[i]) as usize;
        let (mine, rest) = std::mem::take(&mut slab_rest).split_at_mut(len);
        slab_rest = rest;
        body(state, Ctx { vp: base.vp + i, ..base }, &mut Inbox::over_slab(mine));
        // The inbox drops here: unconsumed messages are discarded.
    }
}

/// The engine's armed direct writer moved onto the stack for one chunk,
/// moved back when dropped — at the end of the chunk or while a panicking
/// body unwinds, so the engine still finds the VP that unwound
/// ([`ChunkStage::panic_vp`]).
struct OnStack<'a, M> {
    home: &'a mut Option<DirectSink<M>>,
    local: Option<DirectSink<M>>,
}

impl<'a, M> OnStack<'a, M> {
    #[inline]
    fn new(home: &'a mut Option<DirectSink<M>>) -> Self {
        let local = home.take();
        OnStack { home, local }
    }
}

impl<M> Drop for OnStack<'_, M> {
    #[inline]
    fn drop(&mut self) {
        *self.home = self.local.take();
    }
}

/// One labelled superstep: every VP runs `exec`, then a `sync(label)` barrier
/// is performed. In an `i`-superstep messages may only target VPs in the
/// sender's `i`-cluster (checked by the engine when validation is enabled).
///
/// A superstep is either **dynamic** (the closure's sends define the
/// pattern, discovered by the engine message by message) or **oblivious**
/// (declared via [`Program::step_oblivious`] with a static route and
/// compiled into a [`StepPlan`] that the engine executes with analytic
/// metrics and a direct-write scatter). A declared step's `exec` is its body
/// on a staging writer that sends to the route's destinations and stages
/// its dummies, so running it dynamically yields exactly what the plan
/// records — a plan never changes semantics, only cost.
///
/// A `Superstep` is one **schedule entry**. Entries appended by
/// [`Program::repeat`] share the body and the compiled plan of the entries
/// they repeat (both are reference-counted), so a recursive program holds
/// each *distinct* superstep once however often its schedule runs it; the
/// executors see an ordinary slice of entries and cannot tell.
pub struct Superstep<S, M> {
    /// The sync label `i` of this `i`-superstep, `0 ≤ i < log v`.
    pub label: u32,
    /// Short human-readable tag (for error messages and trace dumps).
    pub name: &'static str,
    /// The SPMD closure.
    pub exec: StepFn<S, M>,
    /// The compiled communication plan, for oblivious supersteps; shared
    /// with every entry that repeats this one.
    pub(crate) plan: Option<Arc<StepPlan>>,
    /// The planned path's [`ChunkKernel`] of `exec`: present exactly when
    /// `plan` is, shared like it.
    pub(crate) kernel: Option<Arc<dyn ChunkKernel<S, M>>>,
}

impl<S, M> Superstep<S, M> {
    /// The compiled communication plan, if this superstep declared one.
    #[inline]
    pub fn plan(&self) -> Option<&StepPlan> {
        self.plan.as_deref()
    }

    /// The chunk kernel the planned path runs this step through
    /// (engine-internal; only asked for a step that has a plan).
    #[inline]
    pub(crate) fn kernel(&self) -> &dyn ChunkKernel<S, M> {
        // allow-panic: builder invariant — every site that sets a plan sets
        // its kernel; unreachable from user input.
        self.kernel.as_deref().expect("a planned step carries its kernel")
    }
}

/// A static program for `M(v)`: a fixed, input-independent sequence of
/// labelled supersteps. The paper's restrictions hold by construction: all
/// processing elements share one sequence of sync labels, and the program
/// ends at a barrier.
///
/// The sequence is a *schedule* over the program's distinct supersteps: a
/// recursive algorithm whose sub-program for a segment size is the same at
/// every call emits it once and [`Program::repeat`]s it afterwards, and
/// everything that costs a route enumeration or resident bytes — compiling
/// a plan, [`Program::plan_bytes`], the per-width declared send totals — is
/// paid per distinct plan, not per schedule entry.
pub struct Program<S, M> {
    v: usize,
    log_v: u32,
    n: usize,
    steps: Vec<Superstep<S, M>>,
    /// Memo of [`Program::send_totals`], one `(width, rows)` entry per shard
    /// width asked for; emptied whenever a step or a plan is added.
    send_totals: Mutex<Vec<(usize, Arc<[u64]>)>>,
}

impl<S, M> Program<S, M> {
    /// Creates an empty program for a machine of `v` VPs (a power of two ≥ 2)
    /// and input size `n`.
    pub fn new(v: usize, n: usize) -> Self {
        // allow-panic: documented builder-time contract — program
        // construction, never the run path.
        assert!(v.is_power_of_two() && v >= 2, "v = {v} must be a power of two >= 2");
        Program {
            v,
            log_v: log2_exact(v),
            n,
            steps: Vec::new(),
            send_totals: Mutex::new(Vec::new()),
        }
    }

    /// Number of virtual processors.
    #[inline]
    pub fn v(&self) -> usize {
        self.v
    }

    /// `log2 v`.
    #[inline]
    pub fn log_v(&self) -> u32 {
        self.log_v
    }

    /// Input size the program was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The superstep sequence.
    #[inline]
    pub fn steps(&self) -> &[Superstep<S, M>] {
        &self.steps
    }

    /// Appends an `i`-superstep with the given SPMD body.
    ///
    /// # Panics
    /// Panics if `label ≥ log v` (labels address cluster levels `0..log v`).
    pub fn step(
        &mut self,
        label: u32,
        name: &'static str,
        exec: impl Fn(&mut S, &Ctx, &mut Inbox<'_, M>, &mut Outbox<M>) + Send + Sync + 'static,
    ) -> &mut Self {
        // allow-panic: documented builder-time contract.
        assert!(
            label < self.log_v.max(1),
            "label {label} out of range for v = {} (program step `{name}`)",
            self.v
        );
        self.steps.push(Superstep { label, name, exec: Arc::new(exec), plan: None, kernel: None });
        lock(&self.send_totals).clear();
        self
    }

    /// Appends an *oblivious* `i`-superstep: `route` declares its
    /// communication pattern as a static function of the VP index — slot
    /// `k` of VP `ctx.vp` (for `0 ≤ k < out_degree`, in send order) is a
    /// payload, a wiseness dummy, [`Route::Skip`] or [`Route::End`] — and
    /// `exec` is the SPMD body, which says *what* it sends, never where:
    /// its writer's [`Slots::send`] fills the VP's next payload slot with
    /// the destination the route names there. The dummies are the engine's
    /// to emit. The declaration is compiled into a [`StepPlan`] here, at
    /// build time: analytic per-fold degree metrics, a one-time
    /// cluster-constraint proof, and the layout the engine's direct-write
    /// scatter runs from (see [`crate::plan`]).
    ///
    /// `route` is any [`DeclaredRoute`]: a closure `|ctx: &Ctx, k| …`, whose
    /// plan enumerates every slot of every VP once, or a route value such as
    /// the butterfly [`crate::plan::Xor`], whose plan is computed in closed
    /// form in `O(log v)`. The closed form equals that enumeration field for
    /// field — metrics, payload total, layout, locality, first fault — and
    /// the trait is sealed, so only this crate's route values have one.
    ///
    /// The body must send **exactly** one payload per declared payload slot
    /// of its VP; one more or one fewer aborts the run with
    /// [`nob_core::ModelError::PlanMismatch`] on every path. Plans can be
    /// ignored per run with [`crate::engine::RunOptions::use_plans`]` =
    /// false`, which executes the step on the ordinary dynamic path — the
    /// same destinations and dummies, staged.
    ///
    /// # Panics
    /// Panics if `label ≥ log v`.
    pub fn step_oblivious<R, F>(
        &mut self,
        label: u32,
        name: &'static str,
        out_degree: usize,
        route: R,
        exec: F,
    ) -> &mut Self
    where
        R: DeclaredRoute + Send + Sync + 'static,
        F: Fn(&mut S, &Ctx, &mut Inbox<'_, M>, &mut Slots<'_, M, R>) + Send + Sync + 'static,
    {
        // allow-panic: documented builder-time contract.
        assert!(
            label < self.log_v.max(1),
            "label {label} out of range for v = {} (program step `{name}`)",
            self.v
        );
        let route = Arc::new(route);
        let (v, log_v, n) = (self.v, self.log_v, self.n);
        let plan = StepPlan::compile(v, log_v, n, label, out_degree, &*route, route.clone());
        let declared = Arc::new(DeclaredStep { route, body: exec, out_degree });
        let staged = Arc::clone(&declared);
        let exec: StepFn<S, M> =
            Arc::new(move |st, ctx, inbox, out| staged.run_staged(st, ctx, inbox, out));
        let kernel: Arc<dyn ChunkKernel<S, M>> = declared;
        let plan = Some(Arc::new(plan));
        self.steps.push(Superstep { label, name, exec, plan, kernel: Some(kernel) });
        lock(&self.send_totals).clear();
        self
    }

    /// Appends the already-emitted schedule entries `entries` (indices into
    /// [`Program::steps`]) again, in order: the new entries share the
    /// originals' bodies and compiled plans, so no route is enumerated and
    /// no table is stored a second time. This is how a recursive static
    /// algorithm says "this sub-schedule again" — the sub-program the paper's
    /// Columnsort runs on an `m`-segment is a function of `(n, m)` only, so
    /// its first call emits it and every later call repeats it.
    ///
    /// A repeated entry is the same superstep (label, name, body, plan) at a
    /// later position; where it sits in the schedule is the only difference
    /// the executors see. A repeated *plan-less* entry stays plan-less, and
    /// [`Program::capture_plans`] later records each occurrence on its own
    /// (see there).
    ///
    /// # Panics
    /// Panics if `entries` reaches past the schedule emitted so far.
    pub fn repeat(&mut self, entries: std::ops::Range<usize>) -> &mut Self {
        // allow-panic: documented builder-time contract.
        assert!(
            entries.end <= self.steps.len(),
            "repeat({entries:?}) reaches past the {} entries emitted so far",
            self.steps.len()
        );
        self.steps.reserve(entries.len());
        for t in entries {
            let Superstep { label, name, exec, plan, kernel } = &self.steps[t];
            let again = Superstep {
                label: *label,
                name,
                exec: Arc::clone(exec),
                plan: plan.clone(),
                kernel: kernel.clone(),
            };
            self.steps.push(again);
        }
        lock(&self.send_totals).clear();
        self
    }

    /// `Ok` when `len` is one state per VP, else the structured
    /// [`nob_core::ModelError::BadVectorLength`] every entry point — `run`,
    /// `run_folded`, plan capture, the job server — reports for it.
    pub(crate) fn check_states_len(&self, len: usize) -> Result<(), nob_core::ModelError> {
        if len == self.v {
            return Ok(());
        }
        Err(nob_core::ModelError::BadVectorLength { what: "states", expected: self.v, got: len })
    }

    /// Records one serial run of this program on `states` (the initial VP
    /// states, exactly as they would be passed to a run) and compiles the
    /// observed send sequence of every *plan-less* superstep into a
    /// replayable captured [`StepPlan`] (see `StepPlan::compile_captured`).
    /// Returns the number of fault-free plans added; on success every
    /// superstep is planned and the program executes on the direct-write
    /// scatter — serial, sharded and fused — exactly like one declared with
    /// [`Program::step_oblivious`] throughout.
    ///
    /// The run is the ordinary serial loop with validation forced on,
    /// whatever options later runs use: a plan-less step's sends are
    /// checked against the cluster constraint as they are recorded, and a
    /// declared route that failed its compile-time proof is reported at its
    /// step. Steps that already carry a plan (declared or captured) run
    /// planned and are left untouched — states are bit-for-bit those of the
    /// dynamic path either way. A failed capture adds no plans.
    ///
    /// **Cache invalidation:** a capture is a trace of *this* program
    /// instance. It stays valid precisely as long as the dynamic send
    /// sequence it recorded does — i.e. for programs whose communication,
    /// while arrival-order-dependent in form, is a fixed function of
    /// `(program, v)` (the network-oblivious premise). Rebuilding the
    /// program for a different `v`, `n` or input means re-capturing;
    /// a stale capture replayed against diverging sends surfaces as
    /// [`nob_core::ModelError::PlanMismatch`], never as corrupted output:
    /// the replay compares every send with the captured table before
    /// writing it. Programs whose pattern genuinely varies with VP state
    /// (data-dependent routing) are not capturable — replay detection
    /// makes that an error, not a wrong answer.
    ///
    /// **Repeated entries** ([`Program::repeat`]): a plan-less body may send
    /// differently at each of its occurrences (its destinations can depend
    /// on state), so capture un-shares — every plan-less *entry* gets the
    /// plan compiled from what that occurrence sent, and one occurrence's
    /// captured sequence is never replayed for another. Only the body stays
    /// shared.
    pub fn capture_plans(&mut self, mut states: Vec<S>) -> Result<usize, nob_core::ModelError>
    where
        S: Send,
        M: Send,
    {
        self.check_states_len(states.len())?;
        let opts = RunOptions { validate: true, ..RunOptions::default() };
        let spec = GranSpec { levels: self.log_v, gran_shift: 0, full: true };
        let mut trace = TraceBuilder::new(self.v, self.n, self.steps.len());
        let mut captures = Vec::new();
        run_serial(self, &mut states, spec, &opts, &mut trace, &mut None, Some(&mut captures))?;
        lock(&self.send_totals).clear();
        let mut added = 0;
        for (t, offsets, slots) in captures {
            let step = &mut self.steps[t];
            let plan = StepPlan::compile_captured(
                self.v, self.log_v, self.n, step.label, offsets, slots,
            );
            if plan.fault().is_none() {
                added += 1;
            }
            let kernel = Captured { route: Arc::clone(&plan.route), out_degree: plan.out_degree };
            step.plan = Some(Arc::new(plan));
            step.kernel = Some(Arc::new(kernel));
        }
        Ok(added)
    }

    /// The declared payload total of every `(superstep, shard)` pair at
    /// `n_shards` executor shards, row-major by superstep (zero for steps
    /// without a usable plan) — what the sharded planned path checks each
    /// worker's written total against. It depends only on the plans and the
    /// width, so the route enumeration is paid once per `(distinct plan,
    /// width)` — an entry sharing an earlier entry's plan copies that row,
    /// and a route value whose VPs all send alike ([`crate::plan::Xor`])
    /// is not enumerated at all — and every later run — a reused program
    /// under `run` exactly like a warm served job — reads the memo.
    ///
    /// Trusting it is safe the same way trusting a declared route is: a
    /// row that disagrees with what a run actually sends surfaces as the
    /// planned path's [`nob_core::ModelError::PlanMismatch`], never as
    /// corruption.
    pub(crate) fn send_totals(&self, n_shards: usize) -> Arc<[u64]> {
        let mut memo = lock(&self.send_totals);
        if let Some((_, totals)) = memo.iter().find(|(n, _)| *n == n_shards) {
            return Arc::clone(totals);
        }
        let vps = self.v / n_shards;
        let mut totals = vec![0u64; self.steps.len() * n_shards];
        // A plan shared by repeated entries is enumerated at its first
        // entry only; the others copy that row.
        let mut first_row: HashMap<*const StepPlan, usize> = HashMap::new();
        for (t, step) in self.steps.iter().enumerate() {
            let Some(plan) = step.plan.as_ref().filter(|p| p.fault().is_none()) else { continue };
            let row = t * n_shards;
            let first = *first_row.entry(Arc::as_ptr(plan)).or_insert(row);
            if first < row {
                totals.copy_within(first..first + n_shards, row);
                continue;
            }
            // A route value that sends alike from every VP needs no walk.
            let alike = plan.payloads_per_vp();
            for (w, shard) in totals[row..row + n_shards].iter_mut().enumerate() {
                match alike {
                    Some(per_vp) => *shard = per_vp * vps as u64,
                    None => plan.for_each_message(w * vps..(w + 1) * vps, |_, _, data| {
                        *shard += u64::from(data)
                    }),
                }
            }
        }
        let totals: Arc<[u64]> = totals.into();
        memo.push((n_shards, Arc::clone(&totals)));
        totals
    }

    /// Number of supersteps carrying a usable (fault-free) communication
    /// plan — the program's plan coverage, reported by the benchmarks.
    pub fn planned_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.plan.as_ref().is_some_and(|p| p.fault().is_none())).count()
    }

    /// Approximate resident bytes of this program's compiled plans (the sum
    /// of every *distinct* plan's [`crate::plan::StepPlan::approx_bytes`]; a
    /// plan shared by repeated entries is resident, and counted, once) —
    /// what the job server's LRU plan cache charges an entry for.
    pub fn plan_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        self.steps
            .iter()
            .filter_map(|s| s.plan.as_ref())
            .filter(|p| seen.insert(Arc::as_ptr(p)))
            .map(|p| p.approx_bytes())
            .sum()
    }

    /// The sequence of sync labels (the paper's per-algorithm label trace).
    pub fn labels(&self) -> Vec<u32> {
        self.steps.iter().map(|s| s.label).collect()
    }
}

/// Checks one VP's staged messages against the cluster constraint of an
/// `i`-superstep.
/// Used by the reference engine and by unit tests; the arena engine folds
/// the same checks into its streaming metrics pass.
pub(crate) fn validate_outbox<M>(
    src: usize,
    label: u32,
    log_v: u32,
    v: usize,
    msgs: &[(u32, Envelope<M>)],
) -> Result<(), nob_core::ModelError> {
    match msgs.iter().find_map(|&(dst, _)| message_fault(src, dst as usize, v, log_v, label)) {
        Some(fault) => Err(fault),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_builder_checks_labels() {
        let mut p: Program<u64, u64> = Program::new(8, 8);
        p.step(0, "ok", |_, _, _, _| {});
        p.step(2, "ok", |_, _, _, _| {});
        assert_eq!(p.labels(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "label 3 out of range")]
    fn program_builder_rejects_big_labels() {
        let mut p: Program<u64, u64> = Program::new(8, 8);
        p.step(3, "bad", |_, _, _, _| {});
    }

    #[test]
    fn outbox_counts_dummies_per_vp() {
        let mut o: Outbox<u32> = Outbox::new();
        o.send(1, 42);
        o.send_dummy(2);
        assert_eq!(o.len(), 2);
        // A new VP starts with an empty view of the shared staging buffer.
        o.begin_vp();
        assert!(o.is_empty());
        o.send(0, 7);
        assert_eq!(o.len(), 1);
        assert_eq!(o.msgs.len(), 3);
    }

    #[test]
    fn validate_outbox_flags_cluster_escape() {
        let mut o: Outbox<u32> = Outbox::new();
        o.send(4, 1); // VP 0 -> VP 4 crosses the top bisection of v = 8.
        assert!(validate_outbox(0, 1, 3, 8, &o.msgs).is_err());
        assert!(validate_outbox(0, 0, 3, 8, &o.msgs).is_ok());
    }

    #[test]
    fn ctx_segment_arithmetic() {
        let c = Ctx { vp: 13, v: 16, log_v: 4, n: 16 };
        assert_eq!(c.segment(4), (3, 1));
        assert_eq!(c.segment(16), (0, 13));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "segment check is debug-only")]
    #[should_panic(expected = "must evenly divide")]
    fn ctx_segment_rejects_uneven_sizes() {
        let c = Ctx { vp: 13, v: 16, log_v: 4, n: 16 };
        let _ = c.segment(3);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "segment check is debug-only")]
    #[should_panic(expected = "must evenly divide")]
    fn ctx_segment_rejects_zero() {
        let c = Ctx { vp: 0, v: 16, log_v: 4, n: 16 };
        let _ = c.segment(0);
    }

    #[test]
    fn send_totals_are_memoised_per_width_until_the_plans_change() {
        let v = 8usize;
        let mut p: Program<u64, u64> = Program::new(v, v);
        // VPs 0..4 send one payload each; a dummy never counts.
        p.step_oblivious(
            0,
            "half",
            2,
            |ctx: &Ctx, k| match (ctx.vp < 4, k) {
                (true, 0) => Route::Data(ctx.vp + 4),
                (true, _) => Route::Dummy(ctx.vp),
                _ => Route::End,
            },
            |_, ctx, _, out| {
                if ctx.vp < 4 {
                    out.send(1);
                }
            },
        );
        p.step(0, "dynamic", |_, ctx, _, out| out.send(ctx.vp ^ 1, 1));
        // VPs 4..8 declare nothing, so at width 2 shard 0 holds it all.
        let two = p.send_totals(2);
        assert_eq!(*two, [4, 0, 0, 0], "[step][shard], plan-less steps are 0");
        assert_eq!(*p.send_totals(4), [2, 2, 0, 0, 0, 0, 0, 0]);
        assert!(Arc::ptr_eq(&two, &p.send_totals(2)), "a second ask must not re-enumerate");
        // Capturing plans the dynamic step: a stale memo would still say 0.
        assert_eq!(p.capture_plans(vec![0; v]).unwrap(), 1);
        assert_eq!(*p.send_totals(2), [4, 0, 4, 4]);
        // So does appending a step.
        p.step(0, "more", |_, _, _, _| {});
        assert_eq!(p.send_totals(2).len(), 6);
    }

    #[test]
    fn closed_form_send_totals_equal_the_enumerated_ones() {
        let v = 16usize;
        // Out-of-range masks and cluster escapes at label 2 fault, so both
        // programs leave those rows 0.
        for mask in 0..2 * v {
            let mut closed: Program<u64, u64> = Program::new(v, v);
            let mut walked: Program<u64, u64> = Program::new(v, v);
            for (label, out_degree) in [(0, 0), (0, 1), (0, 3), (2, 1)] {
                let xor = crate::plan::Xor(mask);
                closed.step_oblivious(label, "xor", out_degree, xor, |_, _, _, _| {});
                let walk = move |ctx: &Ctx, k: usize| {
                    if k == 0 {
                        Route::Data(ctx.vp ^ mask)
                    } else {
                        Route::End
                    }
                };
                walked.step_oblivious(label, "xor", out_degree, walk, |_, _, _, _| {});
            }
            for w in [2, 4, 8] {
                assert_eq!(closed.send_totals(w), walked.send_totals(w), "mask {mask}, width {w}");
            }
        }
    }

    #[test]
    fn repeat_appends_entries_that_share_their_plans() {
        let v = 8usize;
        let mut p: Program<u64, u64> = Program::new(v, v);
        // Every VP but the leader of its 4-segment sends the leader one
        // payload: a non-uniform layout, so the plan owns a table.
        p.step_oblivious(
            0,
            "fan-in",
            1,
            |ctx: &Ctx, _| match ctx.vp % 4 {
                0 => Route::End,
                off => Route::Data(ctx.vp - off),
            },
            |_, _, _, _| {},
        );
        p.step(1, "dynamic", |_, _, _, _| {});
        let once = p.plan_bytes();
        assert!(once > std::mem::size_of::<StepPlan>() as u64, "the table is charged");
        assert_eq!(*p.send_totals(2), [3, 3, 0, 0]);

        p.repeat(0..2).repeat(1..3);
        let names: Vec<_> = p.steps().iter().map(|s| s.name).collect();
        assert_eq!(names, ["fan-in", "dynamic", "fan-in", "dynamic", "dynamic", "fan-in"]);
        assert_eq!(p.labels(), [0, 1, 0, 1, 1, 0]);
        assert_eq!(p.planned_steps(), 3, "coverage counts schedule entries");
        assert_eq!(p.plan_bytes(), once, "a shared plan is resident, and charged, once");
        let plan_at = |t: usize| p.steps()[t].plan().expect("declared");
        assert!(std::ptr::eq(plan_at(0), plan_at(5)));
        // The planned path's kernel is shared the same way; a plan-less
        // entry has none.
        let kernel_at = |t: usize| p.steps()[t].kernel.as_ref().expect("declared");
        assert!(Arc::ptr_eq(kernel_at(0), kernel_at(2)));
        assert!(Arc::ptr_eq(kernel_at(0), kernel_at(5)));
        assert!([1, 3, 4].iter().all(|&t| p.steps()[t].kernel.is_none()));
        // A memo that survived `repeat` would still hold two rows.
        assert_eq!(*p.send_totals(2), [3, 3, 0, 0, 3, 3, 0, 0, 0, 0, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "reaches past the 1 entries emitted so far")]
    fn repeat_rejects_entries_not_yet_emitted() {
        let mut p: Program<u64, u64> = Program::new(8, 8);
        p.step(0, "only", |_, _, _, _| {});
        p.repeat(0..2);
    }
}
