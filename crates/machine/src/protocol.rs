//! The ascend–descend protocol of Section 5.
//!
//! Executing a network-oblivious algorithm on a D-BSP with the *standard*
//! protocol sends every message directly, which can be severely unbalanced
//! (the paper's example: one 0-superstep in which VP0 sends n messages to
//! VP_{v/2} costs `n·g_0`). The ascend–descend protocol instead executes each
//! `i`-superstep `s` as:
//!
//! 1. **Computation phase** — local work (no communication supersteps);
//! 2. **Ascend phase** — for `k = log p − 1` down to `i + 1`: within each
//!    k-cluster, the messages originating in the cluster but destined outside
//!    it are spread evenly over the cluster's `p/2^k` processors;
//! 3. **Descend phase** — for `k = i` to `log p − 1`: within each k-cluster,
//!    the messages residing in it are spread evenly over the processors of
//!    the (k+1)-clusters containing their destinations.
//!
//! Each iteration needs a prefix-like computation to assign intermediate
//! destinations; per Lemma 5.1 this costs `O(log p)` k-supersteps of constant
//! degree plus one k-superstep of degree `O(2^k·h^s(n, 2^k)/p)`.
//!
//! [`ascend_descend`] *simulates the protocol exactly* on a recorded message
//! log: it tracks every message's holder through the phases (deterministic
//! round-robin balancing) and emits the induced supersteps — movement steps
//! with their true degrees plus binary-tree prefix steps of degree ≤ 1 — as a
//! new [`CommTrace`] at granularity `p`, ready for Eq. (2) evaluation.

use nob_core::folding::common_prefix;
use nob_core::metrics::{CommTrace, SuperstepRecord};
use nob_core::model::log2_exact;

/// One message being shepherded through the protocol.
#[derive(Debug, Clone, Copy)]
struct Shepherded {
    /// Source processor (at granularity p).
    src: usize,
    /// Destination processor.
    dst: usize,
    /// Current holder.
    holder: usize,
}

/// Emits the `2·log2(q)` binary-tree prefix supersteps (up-sweep + down-sweep)
/// performed in parallel by every k-cluster of size `q = p/2^k`.
///
/// With `telescoped = false` every round is a k-superstep, matching the
/// Lemma 5.1 accounting (`O(log p)` k-supersteps of constant degree). With
/// `telescoped = true`, round `t` — whose partners share all index bits
/// above `t+1` — is emitted at its deepest valid label `log p − t − 1`; on
/// machines with geometrically decaying `ℓ_i` the round costs then telescope
/// to `O(g_k + ℓ_k)`, which is the refinement the paper notes at the end of
/// Section 5 (sharpening Thm 5.3 by a `log p` factor).
fn push_prefix_steps(out: &mut CommTrace, label: u32, log_p: u32, p: usize, telescoped: bool) {
    let q = p >> label;
    if q < 2 {
        return;
    }
    let rounds = log2_exact(q);
    let round_label = |t: u32| if telescoped { log_p - t - 1 } else { label };
    // Up-sweep: at round t, processors at odd multiples of 2^t within their
    // cluster send one word to the partner 2^t below.
    for t in 0..rounds {
        let step = 1usize << (t + 1);
        let half = 1usize << t;
        let edges: Vec<(usize, usize, u64)> =
            (0..p).filter(|r| r % step == half).map(|r| (r, r - half, 1)).collect();
        out.steps.push(SuperstepRecord::from_counted_edges(round_label(t), log_p, &edges));
    }
    // Down-sweep: parents push partial sums back to the partner above.
    for t in (0..rounds).rev() {
        let step = 1usize << (t + 1);
        let half = 1usize << t;
        let edges: Vec<(usize, usize, u64)> =
            (0..p).filter(|r| r % step == 0).map(|r| (r, r + half, 1)).collect();
        out.steps.push(SuperstepRecord::from_counted_edges(round_label(t), log_p, &edges));
    }
}

/// Emits the movement superstep for a set of holder reassignments.
fn push_movement_step(
    out: &mut CommTrace,
    label: u32,
    log_p: u32,
    moves: impl Iterator<Item = (usize, usize)>,
) {
    let edges: Vec<(usize, usize, u64)> =
        moves.filter(|(a, b)| a != b).map(|(a, b)| (a, b, 1)).collect();
    out.steps.push(SuperstepRecord::from_counted_edges(label, log_p, &edges));
}

/// Rewrites an execution (communication trace + raw message log at VP
/// granularity) into the ascend–descend protocol execution on `p` processors,
/// with the prefix computations emitted exactly as Lemma 5.1 charges them
/// (`O(log p)` k-supersteps of constant degree per phase iteration).
///
/// The returned trace has granularity `p`; evaluate it with
/// [`CommTrace::comm_time`] against a D-BSP machine of `p` processors to
/// obtain the protocol's communication time (the quantity bounded by
/// Thm. 5.3).
///
/// # Panics
/// Panics if `p` is not a power of two in `[2, v]` or if the log length does
/// not match the trace.
pub fn ascend_descend(trace: &CommTrace, log: &[Vec<(u32, u32)>], p: usize) -> CommTrace {
    ascend_descend_with(trace, log, p, false)
}

/// Like [`ascend_descend`] but with telescoped prefix labels — the Section-5
/// closing refinement for machines whose `g_i`, `ℓ_i` decay geometrically
/// (e.g. meshes), where it improves the Thm 5.3 optimality loss from
/// `O(log² p̄)` to `O(log p̄)`.
pub fn ascend_descend_geometric(trace: &CommTrace, log: &[Vec<(u32, u32)>], p: usize) -> CommTrace {
    ascend_descend_with(trace, log, p, true)
}

fn ascend_descend_with(
    trace: &CommTrace,
    log: &[Vec<(u32, u32)>],
    p: usize,
    telescoped: bool,
) -> CommTrace {
    // allow-panic: analysis-harness API contract (offline protocol
    // replay, never the engine run path).
    assert!(p.is_power_of_two() && p >= 2 && (p as u64) <= (1u64 << trace.log_v));
    assert_eq!(trace.steps.len(), log.len(), "message log does not match trace");
    let log_v = trace.log_v;
    let log_p = log2_exact(p);
    let mut out = CommTrace::new(p, trace.n);

    for (step, msgs) in trace.steps.iter().zip(log) {
        let i = step.label;
        if i >= log_p {
            continue; // Local after folding: no communication supersteps.
        }
        // Map to processor granularity and keep only external messages.
        let mut live: Vec<Shepherded> = msgs
            .iter()
            .map(|&(s, d)| {
                let sp = (s as usize) >> (log_v - log_p);
                let dp = (d as usize) >> (log_v - log_p);
                Shepherded { src: sp, dst: dp, holder: sp }
            })
            .filter(|m| m.src != m.dst)
            .collect();

        // --- Ascend phase -------------------------------------------------
        for k in ((i + 1)..log_p).rev() {
            push_prefix_steps(&mut out, k, log_p, p, telescoped);
            let q = p >> k; // cluster size
            let mut rr = vec![0usize; 1usize << k]; // round-robin counters
            let mut moves = Vec::new();
            for m in live.iter_mut() {
                // Destined outside its k-cluster?
                if common_prefix(m.src, m.dst, log_p) < k {
                    let cluster = m.src >> (log_p - k);
                    let new_holder = cluster * q + rr[cluster] % q;
                    rr[cluster] += 1;
                    moves.push((m.holder, new_holder));
                    m.holder = new_holder;
                }
            }
            push_movement_step(&mut out, k, log_p, moves.into_iter());
        }

        // --- Descend phase ------------------------------------------------
        for k in i..log_p {
            push_prefix_steps(&mut out, k, log_p, p, telescoped);
            let moves: Vec<(usize, usize)> = if k + 1 == log_p {
                // Final hop: deliver to the exact destination processor.
                live.iter_mut()
                    .map(|m| {
                        let mv = (m.holder, m.dst);
                        m.holder = m.dst;
                        mv
                    })
                    .collect()
            } else {
                let q = p >> (k + 1); // size of the target (k+1)-clusters
                let mut rr = vec![0usize; 1usize << (k + 1)];
                live.iter_mut()
                    .map(|m| {
                        let cluster = m.dst >> (log_p - k - 1);
                        let new_holder = cluster * q + rr[cluster] % q;
                        rr[cluster] += 1;
                        let mv = (m.holder, new_holder);
                        m.holder = new_holder;
                        mv
                    })
                    .collect()
            };
            push_movement_step(&mut out, k, log_p, moves.into_iter());
        }

        debug_assert!(live.iter().all(|m| m.holder == m.dst), "protocol failed to deliver");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_core::machines;

    /// The Section-5 example: one 0-superstep where VP0 sends `n` messages to
    /// VP_{v/2}.
    fn single_sender(v: usize, n: u64) -> (CommTrace, Vec<Vec<(u32, u32)>>) {
        let log_v = log2_exact(v);
        let mut t = CommTrace::new(v, n as usize);
        let msgs: Vec<(u32, u32)> = (0..n).map(|_| (0u32, (v / 2) as u32)).collect();
        let edges: Vec<(usize, usize, u64)> = vec![(0, v / 2, n)];
        t.steps.push(SuperstepRecord::from_counted_edges(0, log_v, &edges));
        (t, vec![msgs])
    }

    #[test]
    fn protocol_balances_the_single_sender() {
        let v = 64;
        let n = 256u64;
        let (trace, log) = single_sender(v, n);
        let p = 16;
        let rewritten = ascend_descend(&trace, &log, p);
        // The worst movement degree must be ~ n/(p/2) at the first hop and
        // shrink toward the root; no superstep may carry degree n.
        let max_h = rewritten.steps.iter().map(|s| s.h(log2_exact(p))).max().unwrap();
        assert!(max_h < n, "protocol failed to split the burst: h = {max_h}");
        // On a linear array the rewritten execution must be cheaper.
        let m = machines::linear_array(p);
        let d_std = trace.comm_time(&m);
        let d_ad = rewritten.comm_time(&m);
        assert!(d_ad < d_std, "ascend-descend should win on the array: {d_ad} vs {d_std}");
    }

    #[test]
    fn balanced_traffic_is_not_helped_much() {
        // A perfectly balanced bisection exchange: protocol adds overhead.
        let v = 32;
        let log_v = 5;
        let mut t = CommTrace::new(v, v);
        let msgs: Vec<(u32, u32)> = (0..v as u32 / 2).map(|k| (k, k + v as u32 / 2)).collect();
        let edges: Vec<(usize, usize, u64)> =
            msgs.iter().map(|&(s, d)| (s as usize, d as usize, 1)).collect();
        t.steps.push(SuperstepRecord::from_counted_edges(0, log_v, &edges));
        let p = 8;
        let rewritten = ascend_descend(&t, &[msgs], p);
        let m = machines::evaluation(p, 4.0);
        // Overhead is bounded by the O(log² p) factor of Thm 5.3 (generous
        // constant to keep the test robust).
        let lp = 3.0;
        assert!(rewritten.comm_time(&m) <= 40.0 * lp * lp * t.comm_time(&m));
    }

    #[test]
    fn movement_degrees_respect_lemma_5_1() {
        let v = 64;
        let (trace, log) = single_sender(v, 128);
        let p = 16;
        let log_p = log2_exact(p);
        let rewritten = ascend_descend(&trace, &log, p);
        // Every rewritten k-superstep must have degree
        // O(2^k·h^s(n, 2^k)/p) + O(1); check with constant 4.
        for s in &rewritten.steps {
            let k = s.label;
            let h_orig = trace.steps[0].h(k + 1); // h^s(n, 2^{k+1})
            let bound = 4 * ((1u64 << (k + 1)) * h_orig / p as u64 + 2);
            assert!(
                s.h(log_p) <= bound,
                "label {k}: degree {} exceeds Lemma 5.1 bound {bound}",
                s.h(log_p)
            );
        }
    }

    #[test]
    fn telescoped_prefixes_win_on_geometric_machines() {
        // The Section-5 closing remark: with geometrically decaying ℓ_i the
        // telescoped prefix labels shave a log p factor. On the mesh preset
        // (geometric), the geometric variant must be strictly cheaper; on a
        // uniform machine both variants cost the same.
        let v = 64;
        let (trace, log) = single_sender(v, 128);
        let p = 16;
        let plain = ascend_descend(&trace, &log, p);
        let geo = ascend_descend_geometric(&trace, &log, p);
        let mesh = machines::mesh2d(p);
        assert!(
            geo.comm_time(&mesh) < plain.comm_time(&mesh),
            "geometric labels should telescope on the mesh: {} vs {}",
            geo.comm_time(&mesh),
            plain.comm_time(&mesh)
        );
        let flat = machines::uniform(p, 1.0, 5.0);
        assert!((geo.comm_time(&flat) - plain.comm_time(&flat)).abs() < 1e-9);
    }

    #[test]
    fn local_supersteps_are_dropped() {
        let v = 16;
        let log_v = 4;
        let mut t = CommTrace::new(v, v);
        // A label-3 superstep: local at p = 4.
        let msgs = vec![(0u32, 1u32)];
        t.steps.push(SuperstepRecord::from_counted_edges(3, log_v, &[(0, 1, 1)]));
        let rewritten = ascend_descend(&t, &[msgs], 4);
        assert_eq!(rewritten.superstep_count(), 0);
    }
}
