//! # nob-machine — an instrumented superstep virtual machine for `M(v)`
//!
//! Executes network-oblivious algorithms written for the specification model
//! `M(v(n))` of Bilardi et al. (*Network-Oblivious Algorithms*, IPDPS'07 /
//! JACM'16), recording the communication metrics that the `nob-core` model
//! stack evaluates on `M(p, σ)` and D-BSP(p, g, ℓ).
//!
//! ## Programming model
//!
//! A *static* algorithm is a [`program::Program`]: a fixed sequence of
//! labelled supersteps. Each superstep is one SPMD closure executed by every
//! virtual processor (VP); a VP reads the messages delivered by the previous
//! superstep, updates its local state, and sends constant-size messages to
//! peers in its label-cluster. This mirrors the paper's `M(v)` primitives
//! (`send`, `receive`, `sync(i)`) while making the Section-3 "static
//! algorithm" restriction — same label sequence for all processing elements,
//! terminating with a sync — a structural property of the program object.
//!
//! ## The three execution tiers
//!
//! Every superstep executes on one of three tiers, chosen per step at run
//! time from what the program declares (or has captured — see below) and
//! where the step's traffic stays:
//!
//! 1. **Dynamic** — no plan. The engine discovers the pattern message by
//!    message; two barriers per superstep on the sharded path.
//! 2. **Planned** — a compiled [`plan::StepPlan`] (declared or captured).
//!    Analytic metrics, direct-write scatter, one barrier per superstep.
//! 3. **Fused** — a planned step whose payloads provably stay within each
//!    worker's shard ([`plan::StepPlan::shard_local`]). Consecutive fused
//!    steps run entirely worker-locally with **zero barriers** — the
//!    superstep pipeline never synchronizes until the next cross-shard or
//!    dynamic step.
//!
//! Which tiers a run *can* reach is known before it starts — from the
//! program's plans and the run options — so the serial loop takes a census
//! up front and allocates per tier: a fully declared program gets the
//! planned tier's two message slabs, two offset tables, cursor table and
//! seen-bitmap, and never the dynamic tier's metrics builder (`24·v`
//! bytes), staging markers or per-destination counts — at
//! `v = 2^14`, 710 kB per job instead of 1 606 (see [`engine`], "What a
//! serial run allocates").
//!
//! How a step acquires its plan:
//!
//! * **Dynamic** ([`program::Program::step`]): the closure's sends define
//!   the pattern. The engine discovers it message by message — staging the
//!   `(dst, envelope)` pairs, validating the cluster constraint, metering
//!   every message into a degree builder, then counting-sort scattering
//!   payloads into the next superstep's mailbox arena.
//! * **Oblivious** ([`program::Program::step_oblivious`]): the paper's
//!   defining property — a network-oblivious pattern is a *static function
//!   of the VP index and superstep* — is declared as a route (a
//!   [`plan::DeclaredRoute`]: a closure `fn(&Ctx, k) → `[`plan::Route`],
//!   enumerated once over every VP; a route value stated for one aligned
//!   cluster, [`plan::InCluster`], enumerated over cluster 0 alone; or the
//!   butterfly [`plan::Xor`], whose plan is computed in closed form) and
//!   compiled at build time into
//!   a [`plan::StepPlan`]: **analytic metrics** (the superstep record is
//!   emitted in `O(log v)` per run, bit-for-bit identical to what the
//!   dynamic path meters, at every granularity at once), a **one-time
//!   cluster-constraint proof** (validated runs skip the per-message
//!   check), and a **direct-write scatter** — VP closures write payloads
//!   straight into the destination arena slot, eliminating the staging
//!   copy and the counting sort: into the whole-machine arena on the
//!   serial path, into the shard's arena on a sharded worker's fused
//!   (shard-local) step; a payload
//!   bound for another shard goes into the sender's out-lane for it,
//!   handed over at the step's one barrier and drained into the
//!   receiver's arena, sized from the plan. The route is the only place
//!   the pattern is written down:
//!   the step's body says what it sends, never where — its writer,
//!   [`program::Slots`], has only `send(msg)`, which fills the VP's next
//!   declared payload slot with the destination the route names there,
//!   and the declared dummies are the engine's to emit. Because
//!   `step_oblivious` knows the body's and the route's concrete types, it
//!   also builds the step's **chunk kernel**: one loop over a range of VPs
//!   with both inlined, running over a stack-local copy of the engine's
//!   direct writer so its state stays in registers. The serial path (one
//!   chunk, the machine) and every sharded worker (one chunk, its shard)
//!   run a planned step through that kernel — one dynamic call per chunk
//!   instead of one per VP; the boxed body, which stages the same
//!   destinations and dummies, is kept for the dynamic tier and the
//!   reference engine. Plan invariants: a plan never changes
//!   semantics, only cost (enforced by differential suites); a
//!   cluster-violating route faults at compile time and reports like the
//!   dynamic engine would; and a body that sends one payload more or
//!   fewer than its route declares surfaces as an exact
//!   [`nob_core::ModelError::PlanMismatch`] on every path, validated or
//!   not — nothing else about its sends can disagree with the route.
//!   Memory safety never trusts the declaration: the direct writers bound
//!   every write by the machine, the shard cluster and its planned slot
//!   region, and no arena is published before its written total matches.
//! * **Captured** ([`program::Program::capture_plans`]): a program whose
//!   routes are deterministic for its inputs but inconvenient (or
//!   impossible) to declare obliviously can record one ordinary serial run
//!   (validation forced on, declared steps run planned) and compile the
//!   sends of its plan-less steps into `StepPlan`s table-backed per step —
//!   replayed and direct-written like declared routes. Their bodies still
//!   send by destination, so each VP's sends are staged and compared with
//!   the captured table before they are written. **Cache invalidation**: a
//!   capture is valid only for the same program instance and the same
//!   `(initial states, v)` it was recorded against. A run whose behavior
//!   drifts from its capture is *detected*, never silently mis-delivered:
//!   a structured [`nob_core::ModelError::PlanMismatch`]. No shipped
//!   algorithm needs it: every algorithm of `nob-algos` declares all of
//!   its steps, so capture serves only programs with undeclared
//!   [`program::Program::step`]s.
//!
//! A program's step sequence is a *schedule* over its distinct supersteps:
//! a recursive algorithm emits a sub-schedule once and appends it again with
//! [`program::Program::repeat`], whose entries share the body and the
//! compiled plan of the entries they repeat. Sharing is storage, not a
//! tier — every executor walks the same slice of entries — but compiling,
//! [`program::Program::plan_bytes`] and the per-width declared send totals
//! are paid per distinct plan (Columnsort at `v = 2^12`: 213 entries, 15
//! plans).
//!
//! ## Shard/lane architecture
//!
//! The execution core is a **sharded executor** built on the observation
//! that the paper's folding semantics *is* a static sharding of the VP
//! space: processor `r` of `M(p)` simulates the `v/p` consecutive VPs
//! starting at `r·v/p`. Concretely:
//!
//! * **Shards** (`shard`): `n` workers, each exclusively owning a
//!   contiguous VP shard — its slice of the states, its pair of
//!   double-buffered mailbox `mailbox::Arena`s, its send-staging buffer,
//!   and a private metrics builder
//!   ([`nob_core::metrics::StepMetricsBuilder`]) that meters every message
//!   the shard sends. There is no global mailbox
//!   and no global scatter. There is also exactly **one driver**: every
//!   run — [`engine::run`], plan capture, a
//!   [`server::JobServer`] job — goes through the same executor entry,
//!   which owns a gang (`n − 1` parked threads; the caller is worker 0)
//!   and the recyclable run state, and holds the only worker body and the
//!   only gang rendezvous. The two
//!   callers differ in the executor's *lifetime* only: `run` builds one
//!   for the call (threads spawned and joined per run), a server keeps
//!   one until it drops. Width 1 is the same entry running the serial
//!   loop on the calling thread.
//! * **Lanes** ([`mailbox`]): the payloads of every superstep that is not
//!   fused — dynamic or planned — travel through one structure-of-arrays
//!   lane per (source, destination) shard pair, shard-internal ones
//!   through the diagonal — a compact destination stream separate from the
//!   payload stream, so the receiver's counting scan never touches payload
//!   bytes. Lanes carry payloads only: the paper's dummy messages are
//!   metered by their sender and go nowhere. A superstep's label bounds
//!   which pairs are active: an `i`-superstep only connects shards sharing
//!   the top `i` shard-index bits, and supersteps with `label ≥ log n` use
//!   the diagonal alone. Each worker fills its own out-lanes and swaps them
//!   into hand-over slots before a barrier; each receiver drains its slots
//!   after it (each slot is a `Mutex` the barrier keeps uncontended), as
//!   `M(v)` hands a superstep's messages over at its `sync`.
//! * **Two barriers** (dynamic supersteps): after the hand-over barrier
//!   every worker counts and drains its incoming slots into its own arena —
//!   a shard-local counting sort — and the coordinator adds up the shard
//!   builders in `O(n · v)` (their counts are additive,
//!   [`nob_core::metrics::StepMetricsBuilder::add`]), replacing the global
//!   counting sort in which every worker re-scanned the entire staging
//!   buffer; the second barrier closes the superstep. The builders are
//!   built only for a run that has a dynamic superstep.
//! * **One barrier** (planned supersteps): a superstep with a compiled
//!   plan skips staging, metering and merge. Each worker sizes its own
//!   write arena from the declared routes of its shard cluster, runs its
//!   VPs with each payload pushed into its out-lane for the destination
//!   shard, checks its written total against the declared one and hands
//!   the lanes over, while the coordinator pushes the plan's precomputed
//!   record with nothing to merge. One barrier per planned superstep,
//!   after which every worker drains the lanes addressed to it into its
//!   arena (each inbox bounds-checked and exactly filled) and commits.
//! * **Zero barriers** (fused supersteps): when a plan's compile-time
//!   payload-locality summary proves every payload stays within its
//!   sender's shard at the current width, the step is local computation on
//!   each worker (the paper's folding), so each worker runs it as the
//!   serial loop's planned step on its own shard — one routine: size the
//!   arena from the plan's `O(1)` [`plan::PlanLayout`] (or a count pass
//!   over the shard's routes), execute, check the written total, commit —
//!   no hand-over, no barrier at all. Runs of consecutive fused steps form
//!   an unsynchronized per-worker pipeline; metrics are still pushed per
//!   superstep and traces stay bit-for-bit identical. Disable with
//!   [`engine::RunOptions::fuse`]`= false` to reproduce the one-barrier
//!   protocol exactly.
//!
//! The serial path (1 shard) keeps its proven **zero-allocation steady
//! state** on both the dynamic and the planned path; all paths produce
//! bit-for-bit identical states, traces and message logs (differential
//! property suites in `tests/`).
//!
//! ### Unsafe surface
//!
//! Two modules carry `unsafe`, and `crates/lint/unsafe_inventory.txt` pins
//! their counts. `shard` has one lifetime erasure:
//! the gang's scope hands its parked threads a `'static`-erased reference
//! to the caller's closure, sound because the scope returns only after
//! every worker's done handshake, *including when the caller unwinds*
//! (the argument of the standard library's scoped threads, with the join
//! replaced by the handshake). Everything else is in [`mailbox`], behind
//! three documented invariants: (1) arena slabs track their initialized
//! prefix, (2) inbox views uniquely own the messages handed to closures,
//! and (3) the one-arena planned writer
//! (`mailbox::DirectOut`, used by the serial loop and by a worker's fused
//! step over its own shard, on buffers private to the executing thread)
//! bounds every payload write by its arena's VP range and its
//! destination's planned slot range, and the engine refuses to publish an
//! arena whose written total disagrees with the total it sized — so slabs
//! are only ever committed fully initialized, each slot written exactly
//! once, however many payloads the bodies sent. Every message that crosses
//! shards changes hands in a lane, with no `unsafe` at all: each lane is a
//! `Mutex` over plain `Vec`s, filled before a barrier and drained after it.
//! Lanes carry `ManuallyDrop` payloads, so they add no drop glue to the
//! planned kernels that fill them: messages a failed run left in them are
//! dropped when the next run on the same executor empties the lanes, and
//! leak if the executor is dropped first.
//!
//! ## Robustness
//!
//! Failures are structured, deterministic, and never hang the gang:
//!
//! * **Structured panic recovery** — a VP closure that panics is downgraded
//!   to [`nob_core::ModelError::VpPanic`] (superstep name, offending VP,
//!   payload message preserved), identically on the serial and every
//!   sharded width; the gang exits its barrier protocol in lockstep and
//!   the run reports the lowest shard's error — the first in source order,
//!   matching serial semantics. Out-of-range destinations and a missing
//!   requested message log are likewise `ModelError`s, not panics;
//!   non-test engine code is panic-free by a tier-1 lint gate (residual
//!   `expect`s carry an `allow-panic:` justification).
//! * **Barrier watchdog** — [`engine::RunOptions::stall_timeout`] arms the
//!   gang barrier: a lost or descheduled worker poisons it and the run
//!   fails with [`nob_core::ModelError::GangStall`] instead of
//!   deadlocking.
//! * **Deterministic fault injection** — [`engine::RunOptions::faults`]
//!   accepts a [`nob_core::fault::FaultPlan`] addressing every phase
//!   boundary of both executors by `(site, shard, superstep, occurrence)`,
//!   injecting a model error or a panic through the exact abort path a
//!   real failure would take (sites are listed in the `shard` module
//!   docs). Without a plan the cost is one `Option` test per phase — the
//!   zero-allocation steady state is unchanged.
//!
//! The chaos suite (`tests/chaos.rs`) sweeps injected faults over
//! site × flavor × shard width and asserts structured errors, lockstep
//! exit, and bit-for-bit clean re-runs in the same process.
//!
//! ## Serving
//!
//! [`engine::run`] is batch-shaped: it builds an executor, executes one
//! program and tears everything down. [`server::JobServer`] is the serving
//! counterpart — admission, a plan cache and ticket bookkeeping in front
//! of **one executor kept for the server's lifetime**:
//!
//! * **Gang lifetime** — the executor's threads are spawned once, at
//!   server creation, and stay parked between jobs until the server
//!   drops; dispatching a job costs one rendezvous (publish the job, wake
//!   the gang, collect the done handshakes) instead of thread spawns and
//!   joins. A job's states are executed in place — each worker gets its
//!   `split_at_mut` shard — and worker arenas, staging buffers, scatter
//!   scratch, shard metrics builders and the trace builder are recycled
//!   across jobs, extending the engine's zero-allocation steady state
//!   *across* jobs (pinned by `tests/allocation.rs`).
//! * **Plan cache** — compiled programs (StepPlans, layouts and the
//!   declared send totals memoised on the program) are cached under
//!   `(shape fingerprint, v, width)`, where the shape is the submitter-declared
//!   [`server::ShapeKey`]. The key names no data: a captured program is
//!   submitted as [`server::ProgramSource::Prebuilt`], so each job runs
//!   the program its submitter captured — the capture validity rule above
//!   is the submitter's. The cache only ever changes *cost*: a wrong or
//!   stale entry surfaces as [`nob_core::ModelError::PlanMismatch`]
//!   through the same gates that police declared routes.
//! * **Admission** — FIFO with one size-aware exception: the earliest
//!   small job (`v ≤ 2^12`) overtakes a large queued head, at most 64
//!   times, so interactive jobs are not starved behind a
//!   bulk sort and bulk sorts are not starved by a stream of small ones.
//! * **Isolation** — a `VpPanic`, injected fault or `GangStall` fails only
//!   its own job's ticket; the barrier is re-armed with a fresh generation
//!   and the next job runs on the same, still-warm gang.
//!
//! ## Observability
//!
//! Phase-level telemetry follows the fault-injection design: structured,
//! deterministic to wire up, and provably free when off.
//!
//! * **Arming** — [`engine::RunOptions::telemetry`] /
//!   [`server::ServerConfig::telemetry`] take an
//!   `Option<Arc<`[`nob_core::telemetry::TelemetrySink`]`>>`. Disarmed
//!   (the default) the cost is one `Option` discriminant test per phase
//!   boundary — no clock reads, no allocation, no atomics — pinned by
//!   tier-1's counting-allocator tests (`tests/allocation.rs`) and a
//!   bit-for-bit armed-vs-disarmed differential; armed, a job allocates
//!   exactly what `scripts/exact_counts.txt` records (the exact-count
//!   gate, `scripts/exact_gate.sh`, counts with the sink armed).
//! * **Sites, not strings** — spans are keyed by the static
//!   [`nob_core::telemetry::Site`] enum (serial planned/exec;
//!   shard prepare/exec/exec-planned/fused-exec/commit/flush/gather/
//!   merge/barrier-wait), one flat slot array per worker: recording is
//!   two `Instant` reads and a relaxed add, no hashing, no locks, no
//!   contention between gang members. Lifecycle counters
//!   ([`nob_core::telemetry::Counter`]) cover the JobServer the same way:
//!   queue wait, dispatch, service, epoch resets, admission overtakes,
//!   plan-cache hits/misses/evictions/bytes, the widest worker's mailbox
//!   arena footprint, pool reuses and serial-path jobs — every popped job
//!   accounts exactly one cache hit or miss, so `jobs == hits + misses`
//!   holds as a checkable invariant.
//! * **Reports** — [`nob_core::telemetry::TelemetrySink::run_report`]
//!   aggregates worker slots into a stable JSON snapshot
//!   (`{"schema":"nob-telemetry-v1","kind":"run",...}`, always all 11
//!   sites) and `server_report` the flat `"kind":"server"` counter
//!   object. The chaos suite asserts that an armed run observes every
//!   site, the server suite the lifecycle invariants; the repo benchmark's
//!   traced run (`benchmark/`) turns both reports into its per-layer
//!   `shard.*` / `server.*` metrics and keeps the raw reports in
//!   `layers.json`.
//! * **Fault attribution** — an armed sink also enriches
//!   [`nob_core::ModelError::GangStall`] with the stalled workers' last
//!   recorded phase, turning "the barrier timed out" into "worker 2
//!   never left `shard:exec` in superstep 5".
//!
//! ## Correctness tooling
//!
//! The contracts above that no compiler checks are enforced by
//! `nob-lint` (`crates/lint`), an offline, zero-dependency static
//! analyzer run by tier-1 (`cargo run --release -p nob-lint`). Its
//! scanner is comment/string/attribute-aware and skips `#[cfg(test)]`
//! items at module granularity, so the rules fire on exactly the
//! non-test engine code:
//!
//! * **no-panic** (NL001) — non-test engine code surfaces failures as
//!   `ModelError`s; every residual `unwrap`/`expect`/`panic!`/`assert!`/
//!   `assert_eq!`/`assert_ne!` carries an `allow-panic:` justification.
//! * **no-saturating** (NL002) — counts feeding the unsafe scatters use
//!   checked adds; `allow-saturating:` justifies display-only clamps.
//! * **unsafe-safety / unsafe-inventory** (NL003/NL004) — every `unsafe`
//!   carries a `// SAFETY:` comment (or rustdoc `# Safety` section), and
//!   per-file unsafe counts are pinned to a checked-in baseline so the
//!   surface documented above cannot grow silently.
//! * **ordering-justified** (NL005) — every `Ordering::SeqCst` carries an
//!   `// ordering:` comment saying why a total order is required (the
//!   round-stamped abort protocol is the canonical holder).
//! * **site-coverage** (NL006) — every telemetry [`Site`] and failpoint
//!   string is statically verified to have an instrumentation call site
//!   in the executors and a reference under `tests/`.
//! * **instant-gate** (NL007) — the zero-cost telemetry contract:
//!   `Instant::now` appears only behind an armed-sink guard
//!   (`tele.map(…)`), so disarmed runs never read the clock.
//!
//! Rules, escape hatches and the baseline workflow are documented in
//! `crates/lint/README.md`; the deterministic JSON report
//! (`LINT_report.json`) is checked in.
//!
//! [`Site`]: nob_core::telemetry::Site
//!
//! ## Execution modes
//!
//! * [`engine::run`] — full-granularity execution on `M(v)`, sharded across
//!   the worker budget ([`engine::RunOptions::workers`], defaulting to
//!   `NOB_THREADS` or else the visible CPUs). Produces the output
//!   states plus a [`nob_core::CommTrace`] carrying per-superstep degrees
//!   for *every* folding `M(2^j)` at once.
//!   A folding onto `M(p)` is a view of that one run, not a second
//!   execution: [`nob_core::CommTrace::fold`] gives its metrics, and its
//!   outputs are the run's.
//! * [`protocol::ascend_descend`] — rewrites a message log into the
//!   Section-5 ascend–descend protocol execution, the basis of Theorem 5.3.
//! * [`reference::run_reference`] — the preserved legacy engine (per-VP
//!   `Vec` mailboxes, always serial), kept as the differential-testing
//!   oracle and benchmarking baseline for the sharded engine. Its
//!   [`reference::run_folded_reference`] is the one executed folding: the
//!   oracle for the paper's claim that folding preserves outputs and
//!   metrics.

// Unsafe is denied everywhere except `mailbox` and `shard` (see "Unsafe
// surface" above).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod mailbox;
pub mod plan;
pub mod program;
pub mod protocol;
pub mod reference;
pub mod server;
mod shard;
pub mod traits;

pub use engine::{run, RunOptions, RunResult};
pub use mailbox::Inbox;
pub use plan::{DeclaredRoute, InCluster, Route, StepPlan, Xor};
pub use program::{Ctx, Outbox, Program, Slots, Superstep};
pub use server::{
    JobOptions, JobResult, JobServer, JobSpec, JobTicket, ProgramSource, ServerConfig, ServerStats,
    ShapeKey,
};
pub use traits::{execute, execute_with_log, NobAlgorithm};
