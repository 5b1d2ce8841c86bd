//! The n-MM problem (Section 4.1): multiply two √n×√n matrices over a
//! semiring on `M(n)`.
//!
//! Three algorithms:
//!
//! * [`standard::RecursiveMm`] — the paper's 8-way recursive algorithm
//!   (Thm. 4.2): `H_MM(n, p, σ) = O(n/p^{2/3} + σ·log p)`, `Θ(1)`-optimal.
//!   Its `Θ(n^{1/3})` memory blow-up per VP exists in flight only: the
//!   replicated operands are messages, and a VP's state stays two entries.
//! * [`space::SpaceEfficientMm`] — the §4.1.1 variant that bounds the
//!   blow-up in flight too, `O(1)` per VP: `H = O(n/√p + σ·√p)`, optimal
//!   among constant-memory algorithms (Irony–Toledo–Tiskin bound).
//! * [`cannon::CannonMm`] — Cannon's classic flat algorithm on a Morton
//!   layout, the one-level class-C baseline: `H = O(n/√p + σ·√n)`. It loses
//!   to the recursive algorithm on both the bandwidth term (`√p` vs `p^{2/3}`
//!   denominators) and the latency term (`√n` vs `log p` supersteps).
//!
//! Inputs and outputs are distributed one entry per VP, as the paper
//! prescribes ("no entry initially replicated"; the layout itself is free).
//!
//! All three declare every step's route
//! ([`nob_machine::Program::step_oblivious`]), and their messages are bare
//! semiring values. An arrival is named by its inbox position: the engine
//! delivers by ascending source VP, then send order, on every path, and
//! who sends to whom depends on `n` alone, so a receiver works out each
//! sender from its own VP index.

pub mod cannon;
pub mod space;
pub mod standard;

use crate::semiring::{Matrix, Semiring};
use nob_machine::Inbox;

/// Input of the n-MM problem: the operand matrices.
#[derive(Debug, Clone)]
pub struct MmInput<V> {
    /// Left operand (√n × √n).
    pub a: Matrix<V>,
    /// Right operand (√n × √n).
    pub b: Matrix<V>,
}

impl<V: Semiring> MmInput<V> {
    /// Bundles two equally sized square matrices.
    pub fn new(a: Matrix<V>, b: Matrix<V>) -> Self {
        assert_eq!(a.side(), b.side(), "operands must agree in shape");
        MmInput { a, b }
    }

    /// The problem size `n` (entries per matrix).
    pub fn n(&self) -> usize {
        self.a.len()
    }
}

/// The two operand entries that reach a VP in one inbox, as `(A, B)`.
///
/// A message of [`space::SpaceEfficientMm`] and [`cannon::CannonMm`] is the
/// bare semiring value, as in [`standard::RecursiveMm`]: no tag says which
/// operand it holds and no coordinates say where it belongs, because each
/// step's route names its endpoints and they depend on `n` alone. The
/// engine delivers by ascending source VP, then send order
/// ([`nob_machine::Inbox`]), and every sender sends its entry of `A`
/// before its entry of `B`. So a receiver that knows from its own VP index
/// that its `A` entry comes from `a_from` and its `B` entry from `b_from`
/// reads the `A` entry first exactly when `a_from ≤ b_from`; the two
/// coincide only where the sender is the receiver itself, and then slot
/// order puts `A` first.
fn operands<V>(inbox: &mut Inbox<'_, V>, a_from: usize, b_from: usize) -> (V, V) {
    let mut arrivals = inbox.drain(..);
    let (Some(first), Some(second)) = (arrivals.next(), arrivals.next()) else {
        unreachable!("one entry of each operand per VP")
    };
    if a_from <= b_from {
        (first, second)
    } else {
        (second, first)
    }
}

#[cfg(test)]
mod tests {
    use super::cannon::CannonMm;
    use super::space::SpaceEfficientMm;
    use crate::semiring::WrapU64;
    use nob_machine::NobAlgorithm;

    #[test]
    fn messages_are_bare_values() {
        assert_eq!(std::mem::size_of::<<SpaceEfficientMm<WrapU64> as NobAlgorithm>::Msg>(), 8);
        assert_eq!(std::mem::size_of::<<CannonMm<WrapU64> as NobAlgorithm>::Msg>(), 8);
    }
}
