//! Integration suite for the multi-tenant job server
//! ([`nob_machine::server`]): results must be bit-for-bit identical to the
//! batch engine's, the compiled-plan cache must key on `(shape, v, width)`
//! and must degrade structurally (never corrupt) when a program goes stale,
//! and a failing job (injected fault, stall, panicking builder) must leave
//! the persistent gang serviceable for the next one.

use nob_core::fault::FaultPlan;
use nob_core::ModelError;
use nob_machine::plan::Xor;
use nob_machine::server::{JobOptions, JobServer, JobSpec, ProgramSource, ServerConfig, ShapeKey};
use nob_machine::{run, Program, RunOptions};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Splitmix-style hash for value-dependent routes and state seeding.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A butterfly-style oblivious program: one planned superstep per level
/// (exchange with the `k`-th bit partner), which exercises every tier mix
/// the gang serves — cross-shard direct writes at the top levels, fused
/// shard-local steps at the bottom.
fn butterfly(v: usize) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for i in 0..log_v {
        let bit = 1usize << (log_v - 1 - i);
        prog.step_oblivious(i, "bfly", 1, Xor(bit), move |st, _, inbox, out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m);
            }
            out.send(*st ^ bit as u64);
        });
    }
    prog.step(log_v - 1, "consume", |st, _ctx, inbox, _out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
    });
    prog
}

/// A value-dependent program (not declarable obliviously) for the captured
/// path, with a poison flag that flips its routing after capture —
/// `capture_replay.rs`'s staleness machinery.
fn poisonable(v: usize, flag: &Arc<AtomicBool>) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    let f = Arc::clone(flag);
    prog.step(0, "poisonable", move |st, ctx, inbox, out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
        let dst = if f.load(Ordering::Relaxed) {
            ctx.vp & !1
        } else {
            (ctx.vp + mix(*st) as usize % ctx.v) % ctx.v
        };
        out.send(dst, *st | 1);
    });
    prog.step(log_v - 1, "consume", |st, _ctx, inbox, _out| {
        for m in inbox.drain(..) {
            *st = st.wrapping_mul(31).wrapping_add(m);
        }
    });
    prog
}

fn seed_states(v: usize, salt: u64) -> Vec<u64> {
    (0..v as u64).map(|i| mix(i ^ salt)).collect()
}

fn server(n_shards: usize) -> JobServer<u64, u64> {
    JobServer::new(ServerConfig::with_shards(n_shards)).unwrap()
}

/// Cold and warm server jobs are bit-for-bit the batch engine: states and
/// trace identical, the repeats all cache hits.
#[test]
fn server_matches_run_cold_and_warm() {
    let v = 64;
    let states = seed_states(v, 7);
    let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();

    let srv = server(4);
    let spec = JobSpec::new(ShapeKey { algo: "bfly", variant: v as u64 });
    for round in 0..3 {
        let res = srv
            .run_job(
                spec.clone(),
                states.clone(),
                ProgramSource::Build(Box::new(move || butterfly(v))),
            )
            .unwrap();
        assert_eq!(res.states, want.states, "round {round} states");
        assert_eq!(res.trace.as_ref(), Some(&want.trace), "round {round} trace");
    }
    let stats = srv.stats();
    assert_eq!(stats.completed, 3);
    assert_eq!(stats.cache_misses, 1, "only the first job compiles");
    assert_eq!(stats.cache_hits, 2);
}

/// Dynamic (unplanned) programs are served identically too, warm included,
/// at every gang width — also right after a job that failed with staged
/// traffic still in the lanes: one that fails at `shard:gather` on worker 1
/// leaves its column undrained, and the next job must not deliver it.
#[test]
fn server_serves_dynamic_programs() {
    let v = 32;
    let flag = Arc::new(AtomicBool::new(false));
    let states = seed_states(v, 3);
    let want = run(&poisonable(v, &flag), states.clone(), &RunOptions::default()).unwrap();

    for width in [2usize, 4] {
        let srv = server(width);
        let submit = |opts: JobOptions| {
            let f = Arc::clone(&flag);
            let mut spec = JobSpec::new(ShapeKey { algo: "dyn", variant: 0 });
            spec.opts = opts;
            srv.run_job(
                spec,
                states.clone(),
                ProgramSource::Build(Box::new(move || poisonable(v, &f))),
            )
        };
        let faulty = JobOptions {
            faults: Some(Arc::new(FaultPlan::error_at("shard:gather", 1, 0))),
            ..JobOptions::default()
        };
        for job in ["cold", "warm", "after gather fault"] {
            let res = submit(JobOptions::default()).unwrap();
            assert_eq!(res.states, want.states, "width {width}, {job} job");
            assert_eq!(res.trace.as_ref(), Some(&want.trace), "width {width}, {job} job");
            if job == "warm" {
                let err = submit(faulty.clone()).expect_err("armed gather fault must fail the job");
                assert!(matches!(err, ModelError::FaultInjected { .. }), "width {width}: {err:?}");
            }
        }
    }
}

/// The cache keys on `v` and on the execution width: the same shape at a
/// different `v` — or routed to the serial path (`v <` gang width) — is a
/// different entry, never a false hit.
#[test]
fn cache_misses_across_v_and_width() {
    let srv = server(8);
    let shape = ShapeKey { algo: "bfly", variant: 0 };
    // Three distinct (v, width) keys under ONE shape key: gang at v=32,
    // gang at v=64, serial at v=4.
    for v in [32usize, 64, 4] {
        for repeat in 0..2 {
            let states = seed_states(v, 11);
            let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
            let res = srv
                .run_job(
                    JobSpec::new(shape),
                    states,
                    ProgramSource::Build(Box::new(move || butterfly(v))),
                )
                .unwrap();
            assert_eq!(res.states, want.states, "v={v} repeat={repeat}");
        }
    }
    let stats = srv.stats();
    assert_eq!(stats.cache_misses, 3, "one compile per (v, width)");
    assert_eq!(stats.cache_hits, 3, "one warm repeat each");
    assert_eq!(stats.serial_jobs, 2, "v=4 rides the serial path");
}

/// A job whose state vector does not match its program's `v` fails with the
/// same structured `BadVectorLength` a direct `run` reports — whichever way
/// the program arrives — and the server serves the next job.
#[test]
fn mismatched_states_length_fails_the_job_not_the_server() {
    let (v, got) = (32usize, 64usize);
    let srv = server(4);
    let spec = JobSpec::new(ShapeKey { algo: "bfly", variant: 0 });
    let want = ModelError::BadVectorLength { what: "states", expected: v, got };
    let direct = run(&butterfly(v), seed_states(got, 1), &RunOptions::default());
    assert_eq!(direct.err(), Some(want.clone()));
    let long = || seed_states(got, 1);
    let served = [
        srv.run_job(spec.clone(), long(), ProgramSource::Prebuilt(Arc::new(butterfly(v)))),
        srv.run_job(spec.clone(), long(), ProgramSource::Build(Box::new(move || butterfly(v)))),
    ];
    for (i, res) in served.into_iter().enumerate() {
        assert_eq!(res.err(), Some(want.clone()), "source {i}");
    }
    let states = seed_states(v, 1);
    let clean = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
    let source = ProgramSource::Build(Box::new(move || butterfly(v)));
    assert_eq!(srv.run_job(spec, states, source).unwrap().states, clean.states);
    assert_eq!(srv.stats().failed, 2);
}

/// A captured program served as `Prebuilt` whose behavior has drifted is
/// *detected* on the warm hit — a structured `PlanMismatch`, with validation
/// on or off — and the gang serves the next job cleanly.
#[test]
fn stale_captured_hit_degrades_structurally() {
    let v = 32;
    let flag = Arc::new(AtomicBool::new(false));
    let states = seed_states(v, 9);
    let mut captured = poisonable(v, &flag);
    assert_eq!(captured.capture_plans(states.clone()).unwrap(), 2);
    let captured = Arc::new(captured);

    let srv = server(4);
    let spec = JobSpec::new(ShapeKey { algo: "poisonable", variant: 0 });
    let submit = |spec: JobSpec| {
        srv.run_job(spec, states.clone(), ProgramSource::Prebuilt(Arc::clone(&captured)))
    };
    let first = submit(spec.clone()).unwrap();
    let live = run(&poisonable(v, &flag), states.clone(), &RunOptions::default()).unwrap();
    assert_eq!(first.states, live.states);

    // The program's behavior drifts out from under its captured plans.
    flag.store(true, Ordering::Relaxed);

    // Validated warm hit: rejected as a structured mismatch.
    let err = submit(spec.clone()).expect_err("stale capture must be rejected");
    assert!(matches!(err, ModelError::PlanMismatch { .. }), "got {err:?}");

    // Non-validated warm hit: the replay compares every send with the
    // captured table whatever the options, so it is rejected the same way.
    let mut noval = spec.clone();
    noval.opts = JobOptions { validate: false, ..JobOptions::default() };
    let err = submit(noval).expect_err("stale capture must be rejected without validation too");
    assert!(matches!(err, ModelError::PlanMismatch { .. }), "got {err:?}");
    let stats = srv.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 2), "one program, warm twice");

    // The gang is still serviceable for an unrelated program.
    let clean = seed_states(64, 5);
    let want = run(&butterfly(64), clean.clone(), &RunOptions::default()).unwrap();
    let res = srv
        .run_job(
            JobSpec::new(ShapeKey { algo: "bfly", variant: 64 }),
            clean,
            ProgramSource::Build(Box::new(|| butterfly(64))),
        )
        .unwrap();
    assert_eq!(res.states, want.states);
}

/// Chaos coverage for serving: an injected fault (error and panic flavor)
/// in job `k` fails `k`'s ticket with the structured error and job `k+1`
/// runs clean on the *same* gang — per-job epoch reset instead of sticky
/// barrier poison.
#[test]
fn gang_survives_injected_fault_between_jobs() {
    let v = 64;
    let states = seed_states(v, 13);
    let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
    let srv = server(4);
    let spec = JobSpec::new(ShapeKey { algo: "bfly", variant: v as u64 });
    let submit = |opts: JobOptions| {
        let mut spec = spec.clone();
        spec.opts = opts;
        srv.run_job(spec, states.clone(), ProgramSource::Build(Box::new(move || butterfly(v))))
    };
    // Warm the cache first, then alternate faulty and clean jobs.
    assert_eq!(submit(JobOptions::default()).unwrap().states, want.states);
    for (site, shard) in [("shard:exec_planned", 1usize), ("shard:commit", 2), ("shard:prepare", 3)]
    {
        let faulty = JobOptions {
            faults: Some(Arc::new(FaultPlan::error_at(site, shard, 1))),
            stall_timeout: Some(Duration::from_secs(5)),
            ..JobOptions::default()
        };
        let err = match submit(faulty) {
            Err(e) => e,
            Ok(_) => panic!("armed fault at {site} shard {shard} did not fail the job"),
        };
        assert!(matches!(err, ModelError::FaultInjected { .. }), "{site}: got {err:?}");
        let clean = submit(JobOptions::default()).unwrap();
        assert_eq!(clean.states, want.states, "{site}: gang not serviceable after fault");
        assert_eq!(clean.trace.as_ref(), Some(&want.trace), "{site}: trace residue");
    }
    // Panic flavor rides the same recovery — on worker 0, i.e. the
    // scheduler thread itself, whose unwind must also stay contained.
    let panicky = JobOptions {
        faults: Some(Arc::new(FaultPlan::panic_at("shard:exec_planned", 0, 1))),
        stall_timeout: Some(Duration::from_secs(5)),
        ..JobOptions::default()
    };
    let err = submit(panicky).expect_err("panic fault must fail the job");
    assert!(matches!(err, ModelError::VpPanic { .. }), "got {err:?}");
    let clean = submit(JobOptions::default()).unwrap();
    assert_eq!(clean.states, want.states);
    assert_eq!(srv.stats().failed, 4);
}

/// A stalled job (one worker descheduled past `stall_timeout`) fails with
/// `GangStall` and the next job runs clean: the re-armed barrier replaces
/// the in-run sticky poison between jobs.
#[test]
fn gang_survives_stall_between_jobs() {
    let v = 64;
    let trip = Arc::new(AtomicBool::new(true));
    let states = seed_states(v, 17);
    let build = |trip: Arc<AtomicBool>| {
        move || {
            let mut prog: Program<u64, u64> = Program::new(v, v);
            let log_v = prog.log_v();
            let t = Arc::clone(&trip);
            prog.step(0, "maybe-slow", move |st, ctx, inbox, out| {
                for m in inbox.drain(..) {
                    *st = st.wrapping_add(m);
                }
                // One VP of shard 3 oversleeps the watchdog, once.
                if ctx.vp == ctx.v - 1 && t.swap(false, Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(400));
                }
                out.send(ctx.vp ^ (ctx.v / 2), *st + 1);
            });
            prog.step(log_v - 1, "consume", |st, _ctx, inbox, _out| {
                for m in inbox.drain(..) {
                    *st = st.wrapping_add(m);
                }
            });
            prog
        }
    };
    let want =
        run(&build(Arc::new(AtomicBool::new(false)))(), states.clone(), &RunOptions::default())
            .unwrap();

    let srv = server(4);
    let mut spec = JobSpec::new(ShapeKey { algo: "slow", variant: 0 });
    spec.opts.stall_timeout = Some(Duration::from_millis(40));
    let err = srv
        .run_job(
            spec.clone(),
            states.clone(),
            ProgramSource::Build(Box::new(build(Arc::clone(&trip)))),
        )
        .expect_err("watchdog must fail the stalled job");
    assert!(matches!(err, ModelError::GangStall { .. }), "got {err:?}");
    assert!(!trip.load(Ordering::Relaxed), "the slow VP actually ran");

    let res =
        srv.run_job(spec, states.clone(), ProgramSource::Build(Box::new(build(trip)))).unwrap();
    assert_eq!(res.states, want.states, "gang not serviceable after stall");
}

/// The compiled-plan cache is bounded by `plan_cache_bytes`: an adversarial
/// stream of fresh shape keys stays under the byte budget by evicting the
/// least-recently-used entries, and an evicted shape transparently
/// recompiles on resubmission instead of replaying a freed plan.
#[test]
fn plan_cache_evicts_by_bytes_and_recompiles() {
    use nob_core::telemetry::{Counter, TelemetrySink};
    use std::sync::atomic::AtomicU64;

    let v = 64;
    let states = seed_states(v, 29);
    let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
    let entry_bytes = butterfly(v).plan_bytes();
    assert!(entry_bytes > 0, "butterfly must carry compiled plans");

    // Room for three entries (all butterfly(v) programs compile to the
    // same plan footprint), then an adversarial stream of nine.
    let sink = Arc::new(TelemetrySink::for_workers(4));
    let cfg = ServerConfig {
        plan_cache_bytes: 3 * entry_bytes,
        telemetry: Some(Arc::clone(&sink)),
        ..ServerConfig::with_shards(4)
    };
    let srv: JobServer<u64, u64> = JobServer::new(cfg).unwrap();
    let builds = Arc::new(AtomicU64::new(0));
    let submit = |variant: u64| {
        let b = Arc::clone(&builds);
        let res = srv
            .run_job(
                JobSpec::new(ShapeKey { algo: "bfly", variant }),
                states.clone(),
                ProgramSource::Build(Box::new(move || {
                    b.fetch_add(1, Ordering::Relaxed);
                    butterfly(v)
                })),
            )
            .unwrap();
        assert_eq!(res.states, want.states, "variant {variant}");
    };
    for variant in 0..8 {
        submit(variant);
    }
    assert_eq!(builds.load(Ordering::Relaxed), 8, "every fresh shape compiles");
    let bytes = sink.get(Counter::CacheBytes);
    assert!(
        bytes <= 3 * entry_bytes && bytes > 0,
        "cache bytes {bytes} escaped the {}-byte budget",
        3 * entry_bytes
    );
    assert!(
        sink.get(Counter::CacheEvictions) >= 5,
        "stream of 8 into a 3-entry budget must evict, saw {}",
        sink.get(Counter::CacheEvictions)
    );

    // Variant 0 is long evicted: the resubmission is a miss that
    // recompiles and still runs bit-for-bit.
    submit(0);
    assert_eq!(builds.load(Ordering::Relaxed), 9, "evicted shape must recompile");
    // A hot shape keeps hitting: the last-submitted variant is resident.
    submit(0);
    assert_eq!(builds.load(Ordering::Relaxed), 9, "resident shape must not recompile");
    let stats = srv.stats();
    assert_eq!(stats.cache_misses, 9);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(sink.get(Counter::CacheMisses), 9, "telemetry mirrors stats");
    assert_eq!(sink.get(Counter::CacheHits), 1);
}

/// A latch for step closures: VP 0 of a [`parked`] program reports in and
/// blocks until the test opens it.
#[derive(Default)]
struct Gate {
    /// `(a job has arrived, open)`.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }

    fn pass(&self) {
        let mut g = self.state.lock().unwrap();
        g.0 = true;
        self.cv.notify_all();
        let _open = self.cv.wait_while(g, |s| !s.1).unwrap();
    }

    /// Whether a job reached the gate within `timeout`.
    fn arrived_within(&self, timeout: Duration) -> bool {
        let g = self.state.lock().unwrap();
        self.cv.wait_timeout_while(g, timeout, |s| !s.0).unwrap().0 .0
    }
}

/// A one-superstep program that parks on `gate` and leaves the states alone.
fn parked(v: usize, gate: &Arc<Gate>) -> Program<u64, u64> {
    let gate = Arc::clone(gate);
    let mut prog: Program<u64, u64> = Program::new(v, v);
    prog.step(0, "park", move |_st, ctx, _inbox, _out| {
        if ctx.vp == 0 {
            gate.pass();
        }
    });
    prog
}

/// Prebuilt submissions share one program across jobs; dropping the server
/// lets the running job finish and fails still-queued tickets structurally
/// instead of running the backlog.
#[test]
fn prebuilt_jobs_and_drop_semantics() {
    const PATIENCE: Duration = Duration::from_secs(10);
    let v = 32;
    let states = seed_states(v, 23);
    let prog = Arc::new(butterfly(v));
    let want = run(&prog, states.clone(), &RunOptions::default()).unwrap();

    let srv = server(4);
    let spec = JobSpec::new(ShapeKey { algo: "bfly", variant: v as u64 });
    let res = srv
        .run_job(spec.clone(), states.clone(), ProgramSource::Prebuilt(Arc::clone(&prog)))
        .unwrap();
    assert_eq!(res.states, want.states);

    // A head job parked mid-superstep, three tickets stacked behind it.
    let (head_gate, tail_gate) = (Arc::new(Gate::default()), Arc::new(Gate::default()));
    let head = srv
        .submit(
            JobSpec::new(ShapeKey { algo: "parked", variant: 0 }),
            states.clone(),
            ProgramSource::Prebuilt(Arc::new(parked(v, &head_gate))),
        )
        .unwrap();
    assert!(head_gate.arrived_within(PATIENCE), "head job never started");
    let tail = Arc::new(parked(v, &tail_gate));
    let tail_spec = JobSpec::new(ShapeKey { algo: "parked", variant: 1 });
    let queued: Vec<_> = (0..3)
        .map(|_| {
            srv.submit(
                tail_spec.clone(),
                states.clone(),
                ProgramSource::Prebuilt(Arc::clone(&tail)),
            )
            .unwrap()
        })
        .collect();

    // Request shutdown while the head is still running: `drop` flags the
    // queue closed, then blocks joining the scheduler, so it runs on a
    // helper thread and the head is released from here.
    let (tx, rx) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        tx.send("dropping").unwrap();
        drop(srv);
        tx.send("dropped").unwrap();
    });
    assert_eq!(rx.recv_timeout(PATIENCE), Ok("dropping"));
    head_gate.open();
    // The scheduler finds the flag when the head finishes, refuses the
    // backlog and exits. Had the helper been descheduled between its signal
    // and the flag, the first queued job would start instead — and park on
    // its own gate, which stays shut until the flag has had ample time.
    let dropped = rx.recv_timeout(PATIENCE);
    tail_gate.open();
    assert_eq!(dropped.or_else(|_| rx.recv_timeout(PATIENCE)), Ok("dropped"), "drop hung");
    dropper.join().unwrap();

    // Every ticket is resolved by now: the head ran to completion, and
    // whatever was still queued at shutdown was refused, not run.
    assert_eq!(head.wait().unwrap().states, states);
    let mut refused = 0;
    for t in queued {
        match t.wait() {
            Ok(r) => assert_eq!(r.states, states),
            Err(ModelError::BadParameter { what, .. }) => {
                assert_eq!(what, "job server");
                refused += 1;
            }
            Err(e) => panic!("unexpected queued-job error: {e:?}"),
        }
    }
    assert!(refused >= 2, "shutdown must refuse still-queued jobs, refused {refused} of 3");
}

/// A builder that panics fails its own job with a structured `VpPanic`
/// that keeps the panic message, and the next job is served: the builder
/// runs on the scheduler thread, which a panic there must not unwind (that
/// left the job's ticket and every later one unresolved). A machine too
/// small for any program (`v = 1`) is refused at submit.
#[test]
fn panicking_builder_fails_its_job_and_the_next_is_served() {
    const PATIENCE: Duration = Duration::from_secs(10);
    let v = 32;
    let states = seed_states(v, 43);
    let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
    // The jobs run on a helper thread, so a hung ticket fails the test at
    // the timeout instead of wedging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let srv = server(4);
        let spec = JobSpec::new(ShapeKey { algo: "bfly", variant: v as u64 });
        let build = |f: fn() -> Program<u64, u64>| ProgramSource::Build(Box::new(f));
        let tiny = srv.submit(spec.clone(), vec![0], build(|| Program::new(1, 1)));
        let panicked =
            srv.run_job(spec.clone(), states.clone(), build(|| panic!("builder gave up")));
        let next = srv.run_job(spec, states, ProgramSource::Build(Box::new(move || butterfly(v))));
        let _ = tx.send((tiny.err(), panicked.err(), next.map(|r| r.states), srv.stats()));
    });
    let (tiny, panicked, next, stats) =
        rx.recv_timeout(PATIENCE).expect("a panicking builder hung the server");
    assert!(matches!(tiny, Some(ModelError::BadParameter { what: "v", .. })), "got {tiny:?}");
    assert!(
        matches!(&panicked, Some(ModelError::VpPanic { step: "program builder", payload, .. })
            if payload == "builder gave up"),
        "got {panicked:?}"
    );
    assert_eq!(next.unwrap(), want.states, "the next job must be served");
    assert_eq!((stats.completed, stats.failed), (1, 1));
}

/// A panic on shard 0 — the thread that called into the gang: the caller of
/// `run`, the scheduler of a server — is contained like any other worker's,
/// at widths 2 and 4, on both sides of the single driver: the run fails
/// with the structured `VpPanic` only after every other worker has left the
/// gang, and the next run is clean (on the server, on the same warm gang).
#[test]
fn panic_on_the_calling_shard_is_contained_served_and_direct() {
    let v = 64;
    let states = seed_states(v, 31);
    let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
    // Step 0 crosses shards at every width (planned tier); the final
    // consume step is dynamic.
    let last = butterfly(v).steps().len() - 1;
    for w in [2usize, 4] {
        let srv = server(w);
        for (site, step) in [("shard:exec_planned", 0usize), ("shard:flush", last)] {
            // An arm fires once, so each side gets its own plan.
            let faults = || Some(Arc::new(FaultPlan::panic_at(site, 0, step)));
            let stall_timeout = Some(Duration::from_secs(5));

            let opts = RunOptions {
                workers: Some(w),
                faults: faults(),
                stall_timeout,
                ..Default::default()
            };
            let err = run(&butterfly(v), states.clone(), &opts).expect_err("direct run");
            assert!(matches!(err, ModelError::VpPanic { .. }), "direct {site} w={w}: {err:?}");

            let mut spec = JobSpec::new(ShapeKey { algo: "bfly", variant: v as u64 });
            let submit = |spec: &JobSpec| {
                srv.run_job(
                    spec.clone(),
                    states.clone(),
                    ProgramSource::Build(Box::new(move || butterfly(v))),
                )
            };
            let clean = submit(&spec).unwrap();
            assert_eq!(clean.states, want.states, "served {site} w={w}: before the fault");
            spec.opts = JobOptions { faults: faults(), stall_timeout, ..JobOptions::default() };
            let err = submit(&spec).expect_err("served run");
            assert!(matches!(err, ModelError::VpPanic { .. }), "served {site} w={w}: {err:?}");
            spec.opts = JobOptions::default();
            let clean = submit(&spec).unwrap();
            assert_eq!(clean.states, want.states, "served {site} w={w}: gang not serviceable");
            assert_eq!(clean.trace.as_ref(), Some(&want.trace), "served {site} w={w}: residue");
        }
    }
}

/// One server alternating two trace shapes and a machine smaller than its
/// gang (the width-1 path) stays bit-for-bit the batch engine, job after
/// job, and accounts its pool and serial counters per job: every gang job
/// after the first reuses all four worker kits, whatever shape ran before.
/// Its armed sink's server report keeps the lifecycle invariants
/// (`jobs == cache_hits + cache_misses`, service and dispatch recorded).
#[test]
fn alternating_shapes_and_serial_jobs_match_run_and_keep_their_counters() {
    use nob_core::telemetry::{Counter, TelemetrySink};

    let sink = Arc::new(TelemetrySink::for_workers(4));
    let cfg = ServerConfig { telemetry: Some(Arc::clone(&sink)), ..ServerConfig::with_shards(4) };
    let srv: JobServer<u64, u64> = JobServer::new(cfg).unwrap();
    let sizes = [1usize << 8, 1 << 10, 2];
    let rounds = 3;
    for round in 0..rounds {
        for v in sizes {
            let states = seed_states(v, 41 + round);
            let want = run(&butterfly(v), states.clone(), &RunOptions::default()).unwrap();
            let res = srv
                .run_job(
                    JobSpec::new(ShapeKey { algo: "bfly", variant: 0 }),
                    states,
                    ProgramSource::Build(Box::new(move || butterfly(v))),
                )
                .unwrap();
            assert_eq!(res.states, want.states, "round {round}, v = {v}: states");
            assert_eq!(res.trace.as_ref(), Some(&want.trace), "round {round}, v = {v}: trace");
            assert_eq!(
                res.rounds == 0,
                v == 2,
                "round {round}, v = {v}: only width 1 is barrier-free"
            );
        }
    }
    let gang_jobs = 2 * rounds;
    let stats = srv.stats();
    assert_eq!(stats.completed, 3 * rounds);
    assert_eq!(stats.serial_jobs, rounds);
    assert_eq!((stats.cache_misses, stats.cache_hits), (3, 3 * rounds - 3));
    assert_eq!(sink.get(Counter::SerialJobs), rounds);
    assert_eq!(sink.get(Counter::DispatchCount), gang_jobs);
    assert_eq!(sink.get(Counter::EpochResetCount), gang_jobs);
    assert_eq!(sink.get(Counter::PoolReuses), 4 * (gang_jobs - 1));
    // The lifecycle report accounts every popped job exactly once and
    // carries the timings an operator reads: a counter that stops being
    // recorded fails here.
    let report = sink.server_report();
    assert_eq!(report.jobs, 3 * rounds);
    assert_eq!(report.jobs, report.cache_hits + report.cache_misses, "{report:?}");
    assert!(report.service_nanos > 0, "no service time recorded: {report:?}");
    assert!(report.dispatch_count > 0 && report.dispatch_nanos > 0, "{report:?}");
    assert_eq!(report.dispatch_count, report.epoch_reset_count, "{report:?}");
}
