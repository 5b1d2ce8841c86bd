//! The legacy (pre-arena) engine, preserved verbatim in structure: one
//! `Vec` outbox per VP per superstep, per-VP inbox vectors, edge-list
//! materialization and `SuperstepRecord::from_counted_edges` metrics.
//!
//! It exists for three reasons:
//!
//! 1. **Differential testing** — the arena engine must produce bit-for-bit
//!    identical states, traces and message logs; the property tests in
//!    `tests/engine_properties.rs` compare the two on random programs.
//! 2. **Benchmarking** — the repo benchmark (`benchmark/`) uses it as its
//!    correctness oracle and reports the arena engine's speedup against it
//!    (`reference.job_us`, `reference.speedup`).
//! 3. **Folding** — [`run_folded_reference`] is the only code that
//!    executes a folding: the arena engine always runs at granularity `v`,
//!    and a folding's metrics are `CommTrace::fold` of that one trace.
//!
//! Its per-superstep costs (the reason it was replaced): `v` outbox
//! allocations, one `(src, dst, 1)` tuple per message, `O(v)` zeroed scratch
//! per fold level inside `from_counted_edges`, plus an allocation per
//! delivered-to VP for the inbox handoff.

use crate::engine::{RunOptions, RunResult};
use crate::mailbox::Inbox;
use crate::program::{validate_outbox, Envelope, Outbox, Program};
use nob_core::metrics::{CommTrace, SuperstepRecord};
use nob_core::model::log2_exact;
use nob_core::ModelError;

/// One VP's staged messages, `(dst, envelope)` in send order.
type Staged<M> = Vec<(u32, Envelope<M>)>;

/// Executes one VP: delivers the inbox, runs the closure, returns the
/// staged messages — or the error its sends left behind (a destination
/// beyond the `u32` range, a declared body that broke its route).
fn run_one<S, M>(
    prog: &Program<S, M>,
    step: &crate::program::Superstep<S, M>,
    vp: usize,
    state: &mut S,
    inbox: &mut Vec<M>,
) -> Result<Staged<M>, ModelError> {
    let ctx = crate::program::Ctx { vp, v: prog.v(), log_v: prog.log_v(), n: prog.n() };
    let mut out = Outbox::new();
    let mut ib = Inbox::over_vec(inbox);
    (step.exec)(state, &ctx, &mut ib, &mut out);
    drop(ib);
    inbox.clear();
    match out.take_error(step.name) {
        Some(e) => Err(e),
        None => Ok(out.msgs),
    }
}

/// Runs the computation + send phase for every VP in ascending order and
/// returns the outboxes, one per VP. Always serial, whatever
/// [`RunOptions::parallel`] says: this is the oracle the differential suites
/// trust, so it has one path.
fn exec_phase<S, M>(
    prog: &Program<S, M>,
    step: &crate::program::Superstep<S, M>,
    states: &mut [S],
    inboxes: &mut [Vec<M>],
) -> Result<Vec<Staged<M>>, ModelError> {
    (0..prog.v()).map(|vp| run_one(prog, step, vp, &mut states[vp], &mut inboxes[vp])).collect()
}

/// Legacy full-granularity execution (see the module docs). Semantically
/// identical to [`crate::engine::run`].
pub fn run_reference<S: Send, M: Send>(
    prog: &Program<S, M>,
    mut states: Vec<S>,
    opts: &RunOptions,
) -> Result<RunResult<S>, ModelError> {
    let v = prog.v();
    let log_v = prog.log_v();
    prog.check_states_len(states.len())?;
    let mut inboxes: Vec<Vec<M>> = (0..v).map(|_| Vec::new()).collect();
    let mut trace = CommTrace::new(v, prog.n());
    let mut message_log = opts.collect_messages.then(Vec::new);

    for step in prog.steps() {
        let outboxes = exec_phase(prog, step, &mut states, &mut inboxes)?;

        for (src, out) in outboxes.iter().enumerate() {
            validate_outbox(src, step.label, log_v, v, out, opts.validate)?;
        }

        let edges: Vec<(usize, usize, u64)> = outboxes
            .iter()
            .enumerate()
            .flat_map(|(src, out)| out.iter().map(move |&(dst, _)| (src, dst as usize, 1)))
            .collect();
        trace.steps.push(SuperstepRecord::from_counted_edges(step.label, log_v, &edges));
        if let Some(log) = message_log.as_mut() {
            log.push(edges.iter().map(|&(s, d, _)| (s as u32, d as u32)).collect());
        }

        for out in outboxes {
            for (dst, env) in out {
                if let Envelope::Data(m) = env {
                    inboxes[dst as usize].push(m);
                }
            }
        }
    }

    Ok(RunResult { states, trace, message_log })
}

/// Executes the *folding* of `prog` on `M(p)` with `p ≤ v` (Section 2 of
/// the paper): processor `r` carries out the work of the `v/p`
/// consecutively numbered VPs starting at `r·v/p`, so a superstep with
/// label `≥ log p` is local computation — still executed and delivered, but
/// not recorded — and a recorded superstep counts only the messages that
/// cross processors. The trace has granularity `p`; `collect_messages` is
/// ignored.
///
/// The oracle for the paper's claim that folding preserves outputs and
/// metrics: its states must equal [`crate::engine::run`]'s, and its
/// records must be that run's records with `label < log p`, each degree
/// vector cut to `log p` levels and each total the number of the run's
/// messages external at `p`, so `fold(q)` agrees for every `q ≤ p`
/// (`tests/engine_properties.rs`, `tests/cross_algorithm.rs`).
pub fn run_folded_reference<S: Send, M: Send>(
    prog: &Program<S, M>,
    mut states: Vec<S>,
    p: usize,
    opts: &RunOptions,
) -> Result<RunResult<S>, ModelError> {
    let v = prog.v();
    let log_v = prog.log_v();
    if !p.is_power_of_two() || p < 2 || p > v {
        return Err(ModelError::BadFold { p, v });
    }
    let log_p = log2_exact(p);
    let width = v / p;
    prog.check_states_len(states.len())?;
    let mut inboxes: Vec<Vec<M>> = (0..v).map(|_| Vec::new()).collect();
    let mut trace = CommTrace::new(p, prog.n());

    for step in prog.steps() {
        let outboxes = exec_phase(prog, step, &mut states, &mut inboxes)?;

        for (src, out) in outboxes.iter().enumerate() {
            validate_outbox(src, step.label, log_v, v, out, opts.validate)?;
        }

        if step.label < log_p {
            let edges: Vec<(usize, usize, u64)> = outboxes
                .iter()
                .enumerate()
                .flat_map(|(src, out)| {
                    out.iter().map(move |&(dst, _)| (src / width, dst as usize / width, 1))
                })
                .filter(|(ps, pd, _)| ps != pd)
                .collect();
            trace.steps.push(SuperstepRecord::from_counted_edges(step.label, log_p, &edges));
        }

        for out in outboxes {
            for (dst, env) in out {
                if let Envelope::Data(m) = env {
                    inboxes[dst as usize].push(m);
                }
            }
        }
    }

    Ok(RunResult { states, trace, message_log: None })
}
