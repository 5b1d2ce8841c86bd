//! Proves the arena engine's headline property: **steady-state supersteps
//! perform zero heap allocations** — on the serial path, on the sharded
//! paths, and across warm jobs of a server.
//!
//! A counting global allocator counts **only on threads that armed
//! themselves**, and the arming happens *from inside the program itself*:
//! in an early superstep the first VP of every shard arms the thread it is
//! running on (so gang workers arm themselves), and in the final superstep
//! it disarms it again. The measurement window therefore covers, exactly
//! and on every participating thread: the tail of the arming superstep (its
//! streaming metrics pass, routing scatter, and trace push) and the full
//! execute–measure–route cycle of every steady superstep in between — while
//! excluding one-time setup (arena/stage/counter construction, trace
//! reservation), end-of-run trace materialization, and whatever libtest's
//! other threads allocate meanwhile.

use nob_machine::{run, Ctx, Program, RunOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocations made by armed threads since the current test began.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Bytes those allocations asked for (a `realloc` counts its whole new size).
static ALLOC_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Threads currently armed; every window must bring it back to zero.
static ARMED_THREADS: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Whether this thread's allocations count. `const`-initialised and
    /// destructor-free, so reading it inside the allocator never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}
/// One total is shared by all armed threads, so the tests in this file must
/// not run concurrently with each other.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn arm() {
    if !ARMED.replace(true) {
        ARMED_THREADS.fetch_add(1, Ordering::SeqCst);
    }
}

fn disarm() {
    if ARMED.replace(false) {
        ARMED_THREADS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Takes the file-wide lock and starts the test from a zero count.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    disarm();
    ALLOCS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    guard
}

/// The in-program window hook: the first VP of each of `shards` shards arms
/// its thread in the arming superstep and disarms it in the last one.
fn window_hook(ctx: &Ctx, shards: usize, arm_now: bool, last: bool) {
    if ctx.vp.is_multiple_of(ctx.v / shards) {
        if arm_now {
            arm();
        } else if last {
            disarm();
        }
    }
}

struct CountingAlloc;

fn count_if_armed(bytes: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

// SAFETY: delegates to `System`, only adding a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_supersteps_do_not_allocate() {
    let _serial = serial();
    let v = 1 << 10;
    let rounds = 24;
    let prog = counting_butterfly_armed(v, rounds, 2, 1);
    let states: Vec<u64> = (0..v as u64).collect();
    // Serial path: the parallel path boxes one pool task per chunk per
    // superstep, which is the one documented exception.
    let opts = RunOptions { parallel: false, ..Default::default() };
    let res = run(&prog, states, &opts).unwrap();
    assert_eq!(ARMED_THREADS.load(Ordering::SeqCst), 0, "final superstep must disarm every thread");
    assert_eq!(res.trace.superstep_count(), rounds);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations during {} steady-state supersteps of v = {v}",
        rounds - 3,
    );
}

#[test]
fn warmup_allocations_do_not_grow_with_superstep_count() {
    let _serial = serial();
    // Whole-run allocation totals for S and 2S supersteps differ only by
    // the trace-record materialization at the end of the run (2 allocations
    // per extra superstep: the record's degree vector and the builder's
    // amortized flat growth are pre-reserved, but each `SuperstepRecord`
    // owns one `h_by_fold` vector, and `Vec<SuperstepRecord>` collection is
    // a single allocation).
    let v = 1 << 8;
    let count_run = |rounds: usize| -> usize {
        let prog = counting_butterfly_silent(v, rounds);
        let states: Vec<u64> = (0..v as u64).collect();
        let opts = RunOptions { parallel: false, ..Default::default() };
        ALLOCS.store(0, Ordering::SeqCst);
        arm();
        let res = run(&prog, states, &opts).unwrap();
        disarm();
        assert_eq!(res.trace.superstep_count(), rounds);
        ALLOCS.load(Ordering::SeqCst)
    };
    let short = count_run(8);
    let long = count_run(24);
    // 16 extra supersteps cost exactly 16 record materializations and
    // nothing else: no per-superstep engine allocations.
    assert_eq!(
        long - short,
        16,
        "extra supersteps must cost exactly one end-of-run record allocation each",
    );
}

#[test]
fn sharded_steady_state_does_not_allocate_per_superstep() {
    let _serial = serial();
    // The sharded executor allocates at run setup (workers, lanes, cells,
    // shard arenas) and as lanes/arenas grow to their high-water marks
    // during the first label cycle — but a steady superstep must cost
    // *nothing*: lane pushes, local spill, gather counting sort, epoch
    // merge, trace push and barrier waits all reuse capacity. The counter
    // is armed from inside the program after a full label cycle (so every
    // lane pattern has hit its high-water mark) and disarmed by the final
    // superstep, excluding one-time setup, worker spawning and end-of-run
    // trace materialization — the same windowing as the serial test above.
    let v = 1 << 8;
    let rounds = 24; // labels cycle 0..8; armed at round 16, 8 steady rounds
    let prog = counting_butterfly_armed(v, rounds, 16, 4);
    let states: Vec<u64> = (0..v as u64).collect();
    let opts = RunOptions { workers: Some(4), ..Default::default() };
    let res = run(&prog, states, &opts).unwrap();
    assert_eq!(ARMED_THREADS.load(Ordering::SeqCst), 0, "final superstep must disarm every thread");
    assert_eq!(res.trace.superstep_count(), rounds);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations during {} steady-state sharded supersteps of v = {v}",
        rounds - 17,
    );
}

#[test]
fn sharded_planned_steady_state_does_not_allocate_per_superstep() {
    let _serial = serial();
    // The sharded *planned* path — pipelined prepare (route counting into
    // recycled region tables, prefix sums, window publication), direct
    // cross-shard arena writes, the written-total safety check, the
    // coordinator's O(log v) precomputed trace push, and the single
    // barrier — must be allocation-free in steady state just like the
    // dynamic sharded path. Armed after a full label cycle so both arenas
    // and all region tables have reached their high-water shapes.
    let v = 1 << 8;
    let rounds = 24;
    let prog = planned_butterfly_armed(v, rounds, 16, 4);
    let states: Vec<u64> = (0..v as u64).collect();
    let opts = RunOptions { workers: Some(4), ..Default::default() };
    let res = run(&prog, states, &opts).unwrap();
    assert_eq!(ARMED_THREADS.load(Ordering::SeqCst), 0, "final superstep must disarm every thread");
    assert_eq!(res.trace.superstep_count(), rounds);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations during {} steady-state sharded planned supersteps of v = {v}",
        rounds - 17,
    );
}

#[test]
fn telemetry_armed_sharded_steady_state_does_not_allocate() {
    use nob_core::telemetry::{Site, TelemetrySink};

    let _serial = serial();
    // Arming telemetry must not break the zero-alloc property: the sink's
    // slots are pre-sized at construction ([`TelemetrySink::for_workers`]),
    // so armed steady-state recording — span clock reads, per-site atomic
    // adds, barrier-arrival stamps — costs time but never heap. Same
    // windowing as the disarmed sharded test above.
    let v = 1 << 8;
    let rounds = 24;
    let prog = planned_butterfly_armed(v, rounds, 16, 4);
    let states: Vec<u64> = (0..v as u64).collect();
    let sink = std::sync::Arc::new(TelemetrySink::for_workers(4));
    let opts = RunOptions {
        workers: Some(4),
        telemetry: Some(std::sync::Arc::clone(&sink)),
        ..Default::default()
    };
    let res = run(&prog, states, &opts).unwrap();
    assert_eq!(ARMED_THREADS.load(Ordering::SeqCst), 0, "final superstep must disarm every thread");
    assert_eq!(res.trace.superstep_count(), rounds);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations during {} telemetry-armed sharded supersteps of v = {v}",
        rounds - 17,
    );
    // The window wasn't vacuous: the armed run recorded real spans on both
    // planned tiers and the barrier.
    let report = sink.run_report();
    assert!(report.count(Site::ShardExecPlanned) > 0, "no planned-tier spans recorded");
    assert!(report.count(Site::ShardFusedExec) > 0, "no fused-tier spans recorded");
    assert!(report.count(Site::ShardBarrierWait) > 0, "no barrier-wait spans recorded");
    assert!(report.nanos(Site::ShardBarrierWait) > 0 || report.nanos(Site::ShardExecPlanned) > 0);
}

#[test]
fn telemetry_disarmed_runs_are_bit_for_bit_unchanged() {
    use nob_core::telemetry::TelemetrySink;

    let _serial = serial();
    // The observability rule in both directions: arming telemetry must not
    // perturb results (it only reads clocks), and a disarmed run is the
    // exact run the armed one observed — states, trace and message log all
    // bit-for-bit, on the serial and sharded paths.
    let v = 1 << 8;
    let rounds = 16;
    for workers in [1usize, 4] {
        let prog = counting_butterfly_silent(v, rounds);
        let states: Vec<u64> = (0..v as u64).collect();
        let disarmed = RunOptions {
            workers: Some(workers),
            collect_messages: true,
            ..Default::default()
        };
        let armed = RunOptions {
            telemetry: Some(std::sync::Arc::new(TelemetrySink::for_workers(workers))),
            ..disarmed.clone()
        };
        let plain = run(&prog, states.clone(), &disarmed).unwrap();
        let observed = run(&prog, states, &armed).unwrap();
        assert_eq!(plain.states, observed.states, "states diverge at width {workers}");
        assert_eq!(plain.trace, observed.trace, "trace diverges at width {workers}");
        assert_eq!(
            plain.message_log, observed.message_log,
            "message log diverges at width {workers}"
        );
    }
}

#[test]
fn planned_steady_state_supersteps_do_not_allocate() {
    let _serial = serial();
    // The planned serial path — route counting pass, prefix sum, direct
    // arena writes, O(log v) precomputed trace push — must preserve the
    // engine's headline property, with validation (the route digest) on.
    // Same windowing as the dynamic test above.
    let v = 1 << 10;
    let rounds = 24;
    let prog = planned_butterfly_armed(v, rounds, 2, 1);
    let states: Vec<u64> = (0..v as u64).collect();
    let opts = RunOptions { parallel: false, ..Default::default() };
    let res = run(&prog, states, &opts).unwrap();
    assert_eq!(ARMED_THREADS.load(Ordering::SeqCst), 0, "final superstep must disarm every thread");
    assert_eq!(res.trace.superstep_count(), rounds);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations during {} steady-state planned supersteps of v = {v}",
        rounds - 3,
    );
}

#[test]
fn a_declared_program_does_not_allocate_the_dynamic_tier() {
    let _serial = serial();
    // The serial loop sizes its scratch from the tiers the program can
    // execute. A fully declared program, validation on, gets the planned
    // tier only: two message slabs, two offset tables, the cursor table, the
    // seen-bitmap (`12.125·v` bytes beside the slabs) and the trace — not
    // the streaming counters (`48·v` bytes alone), the staging end markers
    // or the per-destination counts (`4·v` each). One trailing plan-less
    // step and the dynamic tier is back.
    let v = 1 << 12;
    let bytes_per_run = |trailing_dynamic: bool| -> usize {
        let prog = planned_butterfly_silent(v, 24, trailing_dynamic);
        let states: Vec<u64> = (0..v as u64).collect();
        let opts = RunOptions { workers: Some(1), ..Default::default() };
        assert!(opts.validate);
        ALLOC_BYTES.store(0, Ordering::SeqCst);
        arm();
        let res = run(&prog, states, &opts).unwrap();
        disarm();
        assert_eq!(res.trace.superstep_count(), prog.steps().len());
        ALLOC_BYTES.load(Ordering::SeqCst)
    };
    // A throwaway run first absorbs one-time lazy init on this thread.
    let _ = bytes_per_run(false);
    let declared = bytes_per_run(false);
    let budget = 2 * v * std::mem::size_of::<u64>() + 16 * v + 8 * 1024;
    assert!(declared <= budget, "declared run allocated {declared} B, budget {budget} B (v = {v})");
    let mixed = bytes_per_run(true);
    assert!(
        mixed >= declared + 48 * v,
        "a plan-less step must bring the dynamic tier back: {mixed} B vs {declared} B declared",
    );
}

#[test]
fn log_collecting_runs_allocate_one_entry_per_recorded_superstep() {
    let _serial = serial();
    // With `collect_messages` on, the engine fills a recycled scratch
    // buffer and pushes one exact-size clone per recorded superstep into
    // the pre-reserved log. So 16 extra supersteps cost exactly 16 log
    // clones on top of the 16 end-of-run record materializations — no
    // repeated scratch growth, no other per-superstep allocations.
    let v = 1 << 8;
    let count_run = |rounds: usize| -> usize {
        let prog = counting_butterfly_silent(v, rounds);
        let states: Vec<u64> = (0..v as u64).collect();
        let opts = RunOptions { parallel: false, ..RunOptions::with_log() };
        ALLOCS.store(0, Ordering::SeqCst);
        arm();
        let res = run(&prog, states, &opts).unwrap();
        disarm();
        assert_eq!(res.trace.superstep_count(), rounds);
        ALLOCS.load(Ordering::SeqCst)
    };
    // A throwaway run first absorbs one-time lazy init on this thread.
    let _ = count_run(8);
    let short = count_run(8);
    let long = count_run(24);
    assert_eq!(
        long - short,
        32,
        "extra log-collecting supersteps must cost exactly one record + one log entry each",
    );
}

#[test]
fn warm_server_jobs_do_not_allocate_across_jobs() {
    use nob_machine::server::{JobServer, JobSpec, ProgramSource, ServerConfig, ShapeKey};
    use nob_machine::Xor;

    let _serial = serial();
    // The job server's pooling claim, measured: after the first (cold) job
    // compiles plans and grows every pooled structure to its high-water
    // shape — worker-kit arenas, staging, scatter scratch, lane grid, shard cells, merge scratch, trace builder — warm jobs on
    // the persistent gang allocate *nothing*, dispatch and handshake
    // included. Every gang thread (the scheduler is worker 0) arms itself
    // from inside job 3's first superstep and disarms in job N's last, so
    // the window spans whole warm jobs plus every inter-job seam (done
    // handshakes, queue pop, cache hit, epoch reset, seating, ticket
    // fulfillment of jobs 3..N-1) while excluding the cold compile and the
    // submission side. Job 1
    // stalls its last superstep until the main thread has finished
    // submitting, pinning every ticket/queue allocation before the window.
    const SHARDS: usize = 4;
    /// Jobs started so far, per shard: each shard's first VP counts for its
    /// own thread, so no thread's window depends on another's progress.
    static STARTED: [AtomicUsize; SHARDS] = [const { AtomicUsize::new(0) }; SHARDS];
    static SUBMITS_DONE: AtomicBool = AtomicBool::new(false);
    const JOBS: usize = 6;
    for started in &STARTED {
        started.store(0, Ordering::SeqCst);
    }
    SUBMITS_DONE.store(false, Ordering::SeqCst);

    let v = 1 << 8;
    let rounds = 10usize;
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for r in 0..rounds {
        let l = (r as u32) % log_v;
        let d = v >> (l + 1);
        let (first, last) = (r == 0, r == rounds - 1);
        prog.step_oblivious(
            l,
            "bfly-served",
            if last { 0 } else { 1 },
            Xor(d),
            move |st, ctx, inbox, out| {
                if ctx.vp.is_multiple_of(v / SHARDS) {
                    let started = &STARTED[ctx.vp / (v / SHARDS)];
                    if first && started.fetch_add(1, Ordering::SeqCst) + 1 == 3 {
                        arm();
                    }
                    if last {
                        match started.load(Ordering::SeqCst) {
                            // Hold job 1 open until the whole batch is queued.
                            1 if ctx.vp == 0 => {
                                while !SUBMITS_DONE.load(Ordering::SeqCst) {
                                    std::thread::yield_now();
                                }
                            }
                            JOBS => disarm(),
                            _ => {}
                        }
                    }
                }
                for m in inbox.drain(..) {
                    *st = st.wrapping_add(m);
                }
                if !last {
                    out.send(*st);
                }
            },
        );
    }
    let prog = std::sync::Arc::new(prog);
    let states: Vec<u64> = (0..v as u64).collect();
    let srv: JobServer<u64, u64> = JobServer::new(ServerConfig::with_shards(SHARDS)).unwrap();
    let mut spec = JobSpec::new(ShapeKey { algo: "bfly-served", variant: rounds as u64 });
    spec.opts.want_trace = false;
    let tickets: Vec<_> = (0..JOBS)
        .map(|_| {
            srv.submit(
                spec.clone(),
                states.clone(),
                ProgramSource::Prebuilt(std::sync::Arc::clone(&prog)),
            )
            .unwrap()
        })
        .collect();
    SUBMITS_DONE.store(true, Ordering::SeqCst);
    let mut results = tickets.into_iter().map(|t| t.wait().unwrap());
    let first = results.next().unwrap();
    for (k, res) in results.enumerate() {
        assert_eq!(res.states, first.states, "warm job {} diverged", k + 2);
    }
    assert_eq!(ARMED_THREADS.load(Ordering::SeqCst), 0, "last job must disarm every thread");
    let stats = srv.stats();
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, (JOBS - 1) as u64);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations across {} warm server jobs of v = {v}",
        JOBS - 2,
    );
}

/// The [`counting_butterfly_armed`] pattern declared as an oblivious route
/// (planned execution path).
fn planned_butterfly_armed(
    v: usize,
    rounds: usize,
    arm_at: usize,
    shards: usize,
) -> Program<u64, u64> {
    use nob_machine::Xor;
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for r in 0..rounds {
        let l = (r as u32) % log_v;
        let d = v >> (l + 1);
        let arm = r == arm_at;
        let last = r == rounds - 1;
        prog.step_oblivious(
            l,
            "bfly-planned",
            if last { 0 } else { 1 },
            Xor(d),
            move |st, ctx, inbox, out| {
                window_hook(ctx, shards, arm, last);
                for m in inbox.drain(..) {
                    *st = st.wrapping_add(m);
                }
                if !last {
                    out.send(*st);
                }
            },
        );
    }
    prog
}

/// [`planned_butterfly_armed`] without the in-closure arming (the caller
/// measures the whole run), optionally followed by one silent plan-less step.
fn planned_butterfly_silent(v: usize, rounds: usize, trailing_dynamic: bool) -> Program<u64, u64> {
    use nob_machine::Xor;
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for r in 0..rounds {
        let l = (r as u32) % log_v;
        let d = v >> (l + 1);
        let last = r == rounds - 1;
        prog.step_oblivious(
            l,
            "bfly-planned",
            if last { 0 } else { 1 },
            Xor(d),
            move |st, _, inbox, out| {
                for m in inbox.drain(..) {
                    *st = st.wrapping_add(m);
                }
                if !last {
                    out.send(*st);
                }
            },
        );
    }
    if trailing_dynamic {
        prog.step(0, "idle", |_, _, _, _| {});
    }
    prog
}

/// A butterfly exchange: every VP sends one message per superstep — the
/// densest per-VP pattern — with allocation-free closures. The window opens
/// in superstep `arm_at` (see [`window_hook`]), so measurement starts with
/// that superstep's own metrics + routing phases, and closes in the final
/// closure, before end-of-run trace materialization. The serial path warms
/// up in two supersteps (they grow the staging buffer and fill each of the
/// two arenas once); the sharded executor's lanes, arenas and direct-write
/// region tables need a full label cycle.
fn counting_butterfly_armed(
    v: usize,
    rounds: usize,
    arm_at: usize,
    shards: usize,
) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for r in 0..rounds {
        let l = (r as u32) % log_v;
        let d = v >> (l + 1);
        let arm = r == arm_at;
        let last = r == rounds - 1;
        prog.step(l, "bfly", move |st, ctx, inbox, out| {
            window_hook(ctx, shards, arm, last);
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
            if !last {
                out.send(ctx.vp ^ d, *st);
            }
        });
    }
    prog
}

/// Like [`counting_butterfly_armed`] but without the in-closure arming (the whole
/// run is measured by the caller).
fn counting_butterfly_silent(v: usize, rounds: usize) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for r in 0..rounds {
        let l = (r as u32) % log_v;
        let d = v >> (l + 1);
        let last = r == rounds - 1;
        prog.step(l, "bfly", move |st, _ctx, inbox, out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_add(m);
            }
            if !last {
                out.send(_ctx.vp ^ d, *st);
            }
        });
    }
    prog
}
