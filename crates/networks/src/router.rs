//! Cycle-accurate store-and-forward routing of h-relations.
//!
//! One message per directed link per cycle; contention resolved
//! deterministically (lowest message id first). This is the simple
//! store-and-forward model under which the classical
//! `T(h-relation on q-node d-array) = Θ(h·q^{1/d} + q^{1/d})` bounds hold —
//! the bounds the D-BSP presets encode.

use crate::topology::Topology;
use std::collections::HashMap;

/// Routes the message multiset `msgs` (src, dst pairs) to completion and
/// returns the makespan in cycles. Messages with `src == dst` are free.
pub fn route_h_relation<T: Topology>(topo: &T, msgs: &[(usize, usize)]) -> u64 {
    #[derive(Debug)]
    struct Flight {
        at: usize,
        dst: usize,
    }
    let mut flights: Vec<Flight> =
        msgs.iter().filter(|(s, d)| s != d).map(|&(s, d)| Flight { at: s, dst: d }).collect();
    let mut cycles = 0u64;
    let mut live: Vec<usize> = (0..flights.len()).collect();
    while !live.is_empty() {
        cycles += 1;
        // One winner per directed link; deterministic by message index.
        let mut links: HashMap<(usize, usize), usize> = HashMap::new();
        for &id in &live {
            let hop = topo.next_hop(flights[id].at, flights[id].dst);
            links.entry((flights[id].at, hop)).or_insert(id);
        }
        for (&(_, hop), &id) in &links {
            flights[id].at = hop;
        }
        live.retain(|&id| flights[id].at != flights[id].dst);
        assert!(cycles < 1_000_000, "routing did not converge");
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Hypercube, Mesh2D};

    #[test]
    fn single_message_takes_distance_cycles() {
        let m = Mesh2D::new(64);
        let t = route_h_relation(&m, &[(0, 63)]);
        assert_eq!(t, m.distance(0, 63) as u64);
        let h = Hypercube::new(64);
        assert_eq!(route_h_relation(&h, &[(0, 63)]), 6);
    }

    #[test]
    fn empty_and_local_relations_are_free() {
        let m = Mesh2D::new(16);
        assert_eq!(route_h_relation(&m, &[]), 0);
        assert_eq!(route_h_relation(&m, &[(3, 3), (7, 7)]), 0);
    }

    #[test]
    fn contention_serializes_on_shared_links() {
        // Many messages from one source through one outgoing link.
        let m = Mesh2D::new(16);
        let msgs: Vec<(usize, usize)> = (0..8).map(|_| (0, 3)).collect();
        let t = route_h_relation(&m, &msgs);
        // 8 messages over a distance-2+ path with a shared first link: at
        // least 8 cycles for the link plus pipeline drain.
        assert!(t >= 9, "t = {t}");
    }

    #[test]
    fn permutation_on_hypercube_is_fast() {
        let h = Hypercube::new(64);
        let msgs: Vec<(usize, usize)> = (0..64).map(|s| (s, s ^ 63)).collect();
        let t = route_h_relation(&h, &msgs);
        // Bit-complement permutation: e-cube routes without conflicts.
        assert!(t <= 12, "t = {t}");
    }
}
