//! Layout helpers shared by the algorithm implementations.

use nob_machine::{Ctx, Route};

/// The route of a step that sends nothing.
pub(crate) fn silent(_: &Ctx, _: usize) -> Route {
    Route::Skip
}

/// A static step's sends, listed once at build time: for each VP, the items
/// it ships and their destinations, in send order. The route of the step
/// reads the destinations, its body the items, so one enumerator states
/// both. A send to the sender itself is not listed: the item is already
/// there.
pub(crate) struct Shipments<K> {
    /// VP `vp`'s sends are `sends[start[vp]..start[vp + 1]]`.
    start: Vec<usize>,
    sends: Vec<(K, usize)>,
}

impl<K> Shipments<K> {
    /// Lists the sends of a machine of `v` VPs: `each(vp, push)` calls
    /// `push(item, dst)` once per send of VP `vp`, in order.
    pub(crate) fn new(v: usize, mut each: impl FnMut(usize, &mut dyn FnMut(K, usize))) -> Self {
        let mut start = Vec::with_capacity(v + 1);
        let mut sends = Vec::new();
        for vp in 0..v {
            start.push(sends.len());
            each(vp, &mut |item, dst| {
                if dst != vp {
                    sends.push((item, dst));
                }
            });
        }
        start.push(sends.len());
        Shipments { start, sends }
    }

    /// VP `vp`'s sends, in order.
    pub(crate) fn of(&self, vp: usize) -> &[(K, usize)] {
        &self.sends[self.start[vp]..self.start[vp + 1]]
    }

    /// The most sends of any one VP.
    pub(crate) fn out_degree(&self) -> usize {
        self.start.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// Slot `k` of VP `vp`: its `k`-th send.
    pub(crate) fn route(&self, vp: usize, k: usize) -> Route {
        self.of(vp).get(k).map_or(Route::End, |&(_, dst)| Route::Data(dst))
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

/// The routes the converted steps declared as closures on every VP before
/// they were stated per cluster, and the check that each step still compiles
/// to the plan its closure did.
#[cfg(test)]
pub(crate) mod parent_routes {
    use nob_machine::{Ctx, Program, Route, StepPlan};

    /// A route stated for every VP.
    pub(crate) type Closure = Box<dyn Fn(&Ctx, usize) -> Route + Send + Sync>;

    /// Slot `k ≥ payloads` of a step's route: the wiseness dummies as the
    /// closures declared them, VP `j` to `j + v/2^{label+1}` for every `j <
    /// v/2^{label+1}`, `dummies` times.
    pub(crate) fn wiseness(ctx: &Ctx, label: u32, dummies: usize, k: usize) -> Route {
        let span = ctx.v >> (label + 1);
        if span > 0 && ctx.vp < span && k < dummies {
            Route::Dummy(ctx.vp + span)
        } else {
            Route::End
        }
    }

    /// Asserts that every step of `prog` for which `parent` names an
    /// `(out_degree, route)` compiles to the plan that route compiles to,
    /// field for field; returns how many steps it compared.
    pub(crate) fn assert_parent_plans<S, M>(
        prog: &Program<S, M>,
        parent: impl Fn(&str, u32) -> Option<(usize, Closure)>,
    ) -> usize {
        let (v, n, log_v) = (prog.v(), prog.n(), prog.log_v());
        let mut compared = 0;
        for (t, step) in prog.steps().iter().enumerate() {
            let Some((out_degree, route)) = parent(step.name, step.label) else { continue };
            let mut walked: Program<u8, u8> = Program::new(v, n);
            walked.step_oblivious(step.label, step.name, out_degree, route, |_, _, _, _| {});
            let (a, b) =
                (step.plan().expect("declared"), walked.steps()[0].plan().expect("declared"));
            assert_same_plan(a, b, log_v, &format!("v {v} step {t} `{}`", step.name));
            compared += 1;
        }
        compared
    }

    /// Every field a plan exposes, compared.
    fn assert_same_plan(a: &StepPlan, b: &StepPlan, log_v: u32, what: &str) {
        assert_eq!(a.metrics(), b.metrics(), "{what}");
        assert_eq!(a.total_data(), b.total_data(), "{what}");
        assert_eq!(format!("{:?}", a.layout()), format!("{:?}", b.layout()), "{what}");
        for s in 0..=log_v {
            assert_eq!(a.shard_local(s), b.shard_local(s), "{what} s {s}");
        }
        assert_eq!(a.fault(), b.fault(), "{what}");
        assert_eq!(a.approx_bytes(), b.approx_bytes(), "{what}");
    }
}

/// The executed folding of an algorithm, for the per-algorithm folding
/// tests.
#[cfg(test)]
pub(crate) mod folding {
    use nob_core::CommTrace;
    use nob_machine::reference::run_folded_reference;
    use nob_machine::{NobAlgorithm, RunOptions};

    /// Runs `alg`'s folding onto `M(p)` through the reference engine — the
    /// one executed folding — and returns its output and its trace at
    /// granularity `p`.
    pub(crate) fn executed_folding<A: NobAlgorithm>(
        alg: &A,
        n: usize,
        input: &A::Input,
        p: usize,
    ) -> (A::Output, CommTrace) {
        let states = alg.init(n, input);
        let folded = run_folded_reference(&alg.build(n), states, p, &RunOptions::default())
            .expect("the folding runs");
        (alg.extract(n, folded.states), folded.trace)
    }
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
