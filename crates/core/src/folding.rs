//! Folding: executing an `M(v)` algorithm on a smaller machine `M(2^j)`.
//!
//! Under folding (Section 2 of the paper), processor `r` of `M(2^j)` carries
//! out the work of the `v/2^j` consecutively numbered virtual processors
//! starting at `r·v/2^j`. Supersteps with label `i < j` remain communication
//! supersteps; supersteps with label `i ≥ j` become local computation.
//!
//! This module provides the index arithmetic shared by the metric machinery
//! and the folded executor: ownership of VPs, the cluster constraint, and the
//! *externality threshold* of a message (the smallest fold at which it still
//! crosses a processor boundary).

/// The processor of `M(2^j)` that owns virtual processor `vp` of `M(2^log_v)`.
///
/// Ownership is the paper's folding map: blocks of `v/2^j` consecutive VPs.
#[inline]
pub fn proc_of_vp(vp: usize, log_v: u32, j: u32) -> usize {
    debug_assert!(j <= log_v);
    vp >> (log_v - j)
}

/// Number of leading index bits shared by `a` and `b` (out of `log_v`).
///
/// Equivalently: the deepest cluster level at which `a` and `b` are still
/// together. A message `a → b` is *external* at fold `2^j` iff
/// `j > common_prefix(a, b, log_v)`.
#[inline]
pub fn common_prefix(a: usize, b: usize, log_v: u32) -> u32 {
    let x = a ^ b;
    if x == 0 {
        log_v
    } else {
        let bitlen = usize::BITS - x.leading_zeros();
        debug_assert!(bitlen <= log_v, "ids wider than log_v bits");
        log_v - bitlen
    }
}

/// Whether the message `src → dst` crosses a processor boundary when the
/// machine is folded onto `2^j` processors.
#[inline]
pub fn external_at_fold(src: usize, dst: usize, log_v: u32, j: u32) -> bool {
    j > common_prefix(src, dst, log_v)
}

/// Range of virtual processors simulated by processor `r` of `M(2^j)`.
#[inline]
pub fn vps_of_proc(r: usize, log_v: u32, j: u32) -> std::ops::Range<usize> {
    let width = 1usize << (log_v - j);
    r * width..(r + 1) * width
}

/// Validates the i-superstep cluster constraint for a message.
///
/// In an `i`-superstep, a processing element may only send to peers whose
/// index agrees with its own on the `i` most significant bits.
#[inline]
pub fn message_allowed(src: usize, dst: usize, log_v: u32, label: u32) -> bool {
    common_prefix(src, dst, log_v) >= label
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_ownership_is_block_cyclic_free() {
        // v = 16, fold to p = 4: blocks of 4 consecutive VPs.
        for vp in 0..16 {
            assert_eq!(proc_of_vp(vp, 4, 2), vp / 4);
        }
        // Identity fold.
        for vp in 0..16 {
            assert_eq!(proc_of_vp(vp, 4, 4), vp);
        }
        // Fold to a single processor.
        for vp in 0..16 {
            assert_eq!(proc_of_vp(vp, 4, 0), 0);
        }
    }

    #[test]
    fn common_prefix_counts_shared_msb() {
        // log_v = 4: ids are 4-bit.
        assert_eq!(common_prefix(0b0000, 0b0001, 4), 3);
        assert_eq!(common_prefix(0b0000, 0b1000, 4), 0);
        assert_eq!(common_prefix(0b0101, 0b0101, 4), 4);
        assert_eq!(common_prefix(0b0100, 0b0110, 4), 2);
    }

    #[test]
    fn externality_threshold_matches_prefix() {
        // Message 2 -> 3 in a 16-VP machine: shares 3 leading bits, so it is
        // internal at folds 2^0..2^3 and external only at full granularity.
        for j in 0..=3 {
            assert!(!external_at_fold(2, 3, 4, j));
        }
        assert!(external_at_fold(2, 3, 4, 4));
        // Message 0 -> 8 crosses the top-level bisection: external at every
        // non-trivial fold.
        for j in 1..=4 {
            assert!(external_at_fold(0, 8, 4, j));
        }
        assert!(!external_at_fold(0, 8, 4, 0));
    }

    #[test]
    fn cluster_constraint() {
        // label 1 in an 8-VP machine: halves {0..4} and {4..8}.
        assert!(message_allowed(0, 3, 3, 1));
        assert!(!message_allowed(0, 4, 3, 1));
        // label 0: everything goes.
        assert!(message_allowed(0, 7, 3, 0));
    }

    #[test]
    fn vp_ranges_partition_the_machine() {
        let log_v = 5;
        let j = 3;
        let mut seen = [false; 32];
        for r in 0..(1usize << j) {
            for vp in vps_of_proc(r, log_v, j) {
                assert!(!seen[vp]);
                seen[vp] = true;
                assert_eq!(proc_of_vp(vp, log_v, j), r);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
