//! Serving-API walkthrough: a persistent [`JobServer`] multiplexing many
//! program runs over one worker gang.
//!
//! Run with `cargo run --example job_server -p nob-machine`.
//!
//! The server amortizes everything a one-shot [`nob_machine::run`] pays
//! per call: the gang spawns once, compiled plans and send totals are
//! cached under the job's [`ShapeKey`], and mailbox arenas recycle across
//! jobs — a warm job's marginal cost is an enqueue plus two barrier
//! rounds. See the crate docs' "Serving" section for the cache-key and
//! admission rules.

use nob_machine::{
    Ctx, JobServer, JobSpec, ProgramSource, Route, ServerConfig, ShapeKey, Xor,
};
use nob_machine::Program;

/// A butterfly all-to-all over `v` virtual processors, declared with
/// oblivious routes so every superstep carries a compiled plan — each
/// exchange an [`Xor`] route value, whose plan is computed in closed form.
fn butterfly(v: usize) -> Program<u64, u64> {
    let mut prog: Program<u64, u64> = Program::new(v, v);
    let log_v = prog.log_v();
    for l in 0..log_v {
        let d = v >> (l + 1);
        prog.step_oblivious(
            l,
            "bfly",
            1,
            Xor(d),
            move |st, _ctx, inbox, out| {
                for m in inbox.drain(..) {
                    *st = st.wrapping_mul(31).wrapping_add(m);
                }
                out.send(*st);
            },
        );
    }
    // Final superstep: consume the last exchange, send nothing.
    prog.step_oblivious(
        log_v - 1,
        "bfly-consume",
        0,
        |_: &Ctx, _| Route::End,
        |st, _ctx, inbox, _out| {
            for m in inbox.drain(..) {
                *st = st.wrapping_mul(31).wrapping_add(m);
            }
        },
    );
    prog
}

fn main() {
    let v = 1usize << 10;
    // One gang of 4 persistent workers; jobs smaller than the gang run on
    // the scheduler thread's serial path through the same plan cache.
    let srv: JobServer<u64, u64> =
        JobServer::new(ServerConfig::with_shards(4)).expect("valid config");

    // The shape key names the program so repeat submissions can reuse its
    // compiled plans. The builder closure only runs on a cache miss — a
    // warm job never even constructs the program.
    let key = ShapeKey { algo: "bfly", variant: 0 };
    let source = || ProgramSource::Build(Box::new(move || butterfly(v)));
    let states: Vec<u64> = (0..v as u64).collect();

    // Cold job: compiles and caches. Warm jobs: cache hits.
    let first = srv.run_job(JobSpec::new(key), states.clone(), source()).expect("cold job");
    for _ in 0..3 {
        let warm = srv.run_job(JobSpec::new(key), states.clone(), source()).expect("warm job");
        assert_eq!(warm.states, first.states);
    }

    // Tickets decouple submission from completion: queue a batch, then
    // redeem. Size-aware admission lets small interactive jobs overtake a
    // queued large one.
    let tickets: Vec<_> = (0..4)
        .map(|_| srv.submit(JobSpec::new(key), states.clone(), source()).expect("submit"))
        .collect();
    for t in tickets {
        assert_eq!(t.wait().expect("queued job").states, first.states);
    }

    let stats = srv.stats();
    println!(
        "served {} jobs on one gang: {} plan-cache hit(s), {} miss(es)",
        stats.completed, stats.cache_hits, stats.cache_misses
    );
    assert_eq!(stats.cache_misses, 1, "only the first job should compile");
}
