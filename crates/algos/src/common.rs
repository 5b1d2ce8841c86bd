//! Layout helpers shared by the algorithm implementations.

use nob_machine::{Ctx, Outbox, Route};

/// Emits the paper's wiseness dummy messages for a superstep with the given
/// label: VP `j` sends `count` dummy messages to VP `j + v/2^{label+1}`, for
/// every `j < v/2^{label+1}` (Section 4.1: the device that makes the
/// algorithms `(Θ(1), v)`-wise without changing their asymptotic costs).
/// For undeclared steps only: a declared step states its dummies in its
/// route ([`wiseness_route`]) and the engine emits them.
#[inline]
pub fn wiseness_dummies<M>(ctx: &Ctx, label: u32, count: u64, out: &mut Outbox<M>) {
    let span = ctx.v >> (label + 1);
    if span == 0 {
        return;
    }
    if ctx.vp < span {
        for _ in 0..count {
            out.send_dummy(ctx.vp + span);
        }
    }
}

/// The wiseness dummies of [`wiseness_dummies`] as route slots: slot `k`
/// (for `0 ≤ k < count`) of the dummy block a declared superstep's route
/// reserves after its payload slots, `route(ctx, j) = … payloads …,
/// wiseness_route(ctx, label, count, j - payloads)`. The engine emits them;
/// the step's body never does.
#[inline]
pub fn wiseness_route(ctx: &Ctx, label: u32, count: u64, k: usize) -> Route {
    let span = ctx.v >> (label + 1);
    if span > 0 && ctx.vp < span && (k as u64) < count {
        Route::Dummy(ctx.vp + span)
    } else {
        // The dummy block is always the tail of a route, so terminate the
        // VP's declaration outright (cheap exhaustion checks).
        Route::End
    }
}

/// Interleaves the bits of `(i, j)` into a Morton (Z-order) index: bit `b` of
/// `i` lands at position `2b+1`, bit `b` of `j` at position `2b`. Top-down,
/// the 2-bit digits of the result are the quadrant choices `(i-bit, j-bit)`,
/// so aligned power-of-four VP segments correspond to aligned submatrices.
#[inline]
pub fn morton_encode(i: usize, j: usize) -> usize {
    part1by1(i) << 1 | part1by1(j)
}

/// Inverse of [`morton_encode`].
#[inline]
pub fn morton_decode(z: usize) -> (usize, usize) {
    (compact1by1(z >> 1), compact1by1(z))
}

#[inline]
fn part1by1(mut x: usize) -> usize {
    // Spread the low 32 bits of x to even positions.
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

/// Reverses the low `bits` bits of `x` (FFT output indexing).
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

/// Integer `log2` of a power of two.
#[inline]
pub fn ilog2(x: usize) -> u32 {
    debug_assert!(x.is_power_of_two());
    x.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morton_roundtrip() {
        for i in 0..32 {
            for j in 0..32 {
                assert_eq!(morton_decode(morton_encode(i, j)), (i, j));
            }
        }
    }

    #[test]
    fn morton_quadrants_are_aligned_segments() {
        // In an 8x8 matrix, quadrant (i-half, j-half) = contiguous 16-VP block.
        let q = |i: usize, j: usize| morton_encode(i, j) / 16;
        for i in 0..8 {
            for j in 0..8 {
                let expect = ((i >= 4) as usize) * 2 + ((j >= 4) as usize);
                assert_eq!(q(i, j), expect);
            }
        }
    }

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 0), 0);
        for x in 0..64 {
            assert_eq!(bit_reverse(bit_reverse(x, 6), 6), x);
        }
    }
}
