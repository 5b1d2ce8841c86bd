//! Network topologies with deterministic minimal routing.

/// A point-to-point topology over processors `0..p` with a deterministic
/// next-hop routing function.
pub trait Topology: Sync {
    /// Number of processors (a power of two).
    fn p(&self) -> usize;
    /// The next node on the route from `from` towards `to` (`from ≠ to`).
    fn next_hop(&self, from: usize, to: usize) -> usize;
    /// Routing distance (for sanity checks and latency floors).
    fn distance(&self, from: usize, to: usize) -> usize {
        let mut cur = from;
        let mut d = 0;
        while cur != to {
            cur = self.next_hop(cur, to);
            d += 1;
        }
        d
    }
    /// Preset name.
    fn name(&self) -> String;
}

#[inline]
fn part1by1(mut x: usize) -> usize {
    x &= 0xffff_ffff;
    x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
    x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

#[inline]
fn compact1by1(mut x: usize) -> usize {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | (x >> 4)) & 0x00ff_00ff_00ff_00ff;
    x = (x | (x >> 8)) & 0x0000_ffff_0000_ffff;
    x = (x | (x >> 16)) & 0xffff_ffff;
    x
}

/// A √p×√p mesh (no wraparound) with dimension-order (X-then-Y) routing.
/// Processor `i` occupies the Morton position of `i`, so D-BSP i-clusters
/// are aligned submeshes.
#[derive(Debug, Clone, Copy)]
pub struct Mesh2D {
    side: usize,
}

impl Mesh2D {
    /// Builds a mesh with `p = side²` processors (`side` a power of two).
    pub fn new(p: usize) -> Mesh2D {
        assert!(p.is_power_of_two() && p.trailing_zeros().is_multiple_of(2), "p must be 4^m");
        Mesh2D { side: 1 << (p.trailing_zeros() / 2) }
    }

    /// Grid coordinates of processor `i`.
    #[inline]
    pub fn coords(&self, i: usize) -> (usize, usize) {
        (compact1by1(i >> 1), compact1by1(i))
    }

    /// Processor at grid coordinates `(r, c)`.
    #[inline]
    pub fn id(&self, r: usize, c: usize) -> usize {
        part1by1(r) << 1 | part1by1(c)
    }
}

impl Topology for Mesh2D {
    fn p(&self) -> usize {
        self.side * self.side
    }

    fn next_hop(&self, from: usize, to: usize) -> usize {
        let (r0, c0) = self.coords(from);
        let (r1, c1) = self.coords(to);
        if c0 != c1 {
            let c = if c1 > c0 { c0 + 1 } else { c0 - 1 };
            self.id(r0, c)
        } else {
            let r = if r1 > r0 { r0 + 1 } else { r0 - 1 };
            self.id(r, c0)
        }
    }

    fn distance(&self, from: usize, to: usize) -> usize {
        let (r0, c0) = self.coords(from);
        let (r1, c1) = self.coords(to);
        r0.abs_diff(r1) + c0.abs_diff(c1)
    }

    fn name(&self) -> String {
        format!("mesh2d({}x{})", self.side, self.side)
    }
}

/// A log p-dimensional hypercube with e-cube (ascending dimension) routing.
#[derive(Debug, Clone, Copy)]
pub struct Hypercube {
    log_p: u32,
}

impl Hypercube {
    /// Builds a hypercube with `p` processors (a power of two).
    pub fn new(p: usize) -> Hypercube {
        assert!(p.is_power_of_two());
        Hypercube { log_p: p.trailing_zeros() }
    }
}

impl Topology for Hypercube {
    fn p(&self) -> usize {
        1 << self.log_p
    }

    fn next_hop(&self, from: usize, to: usize) -> usize {
        let diff = from ^ to;
        debug_assert!(diff != 0);
        from ^ (1 << diff.trailing_zeros())
    }

    fn distance(&self, from: usize, to: usize) -> usize {
        (from ^ to).count_ones() as usize
    }

    fn name(&self) -> String {
        format!("hypercube(p={})", 1usize << self.log_p)
    }
}

/// A linear array (1D mesh) with the identity placement: processor `i` sits
/// at position `i`, so D-BSP i-clusters are contiguous subarrays.
#[derive(Debug, Clone, Copy)]
pub struct LinearArray {
    p: usize,
}

impl LinearArray {
    /// Builds a linear array of `p` processors (a power of two).
    pub fn new(p: usize) -> LinearArray {
        assert!(p.is_power_of_two());
        LinearArray { p }
    }
}

impl Topology for LinearArray {
    fn p(&self) -> usize {
        self.p
    }

    fn next_hop(&self, from: usize, to: usize) -> usize {
        if to > from {
            from + 1
        } else {
            from - 1
        }
    }

    fn distance(&self, from: usize, to: usize) -> usize {
        from.abs_diff(to)
    }

    fn name(&self) -> String {
        format!("array(p={})", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_coords_roundtrip() {
        let m = Mesh2D::new(64);
        for i in 0..64 {
            let (r, c) = m.coords(i);
            assert!(r < 8 && c < 8);
            assert_eq!(m.id(r, c), i);
        }
    }

    #[test]
    fn mesh_clusters_are_submeshes() {
        // The top 16-processor cluster of a 64-mesh is a 4x4 corner.
        let m = Mesh2D::new(64);
        for i in 0..16 {
            let (r, c) = m.coords(i);
            assert!(r < 4 && c < 4, "proc {i} at ({r},{c})");
        }
    }

    #[test]
    fn mesh_routing_reaches_destination() {
        let m = Mesh2D::new(64);
        for from in [0usize, 17, 63] {
            for to in [5usize, 42, 0] {
                if from == to {
                    continue;
                }
                let mut cur = from;
                let mut hops = 0;
                while cur != to {
                    cur = m.next_hop(cur, to);
                    hops += 1;
                    assert!(hops <= 14, "routing loop {from}->{to}");
                }
                assert_eq!(hops, m.distance(from, to));
            }
        }
    }

    #[test]
    fn hypercube_routing_follows_dimensions() {
        let h = Hypercube::new(32);
        assert_eq!(h.distance(0, 31), 5);
        let mut cur = 0;
        while cur != 31 {
            let next = h.next_hop(cur, 31);
            assert_eq!((cur ^ next).count_ones(), 1);
            cur = next;
        }
    }

    #[test]
    fn array_routing_is_linear() {
        let a = LinearArray::new(16);
        assert_eq!(a.distance(0, 15), 15);
        assert_eq!(a.next_hop(3, 10), 4);
        assert_eq!(a.next_hop(10, 3), 9);
    }
}
