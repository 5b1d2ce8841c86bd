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

pub mod cannon;
pub mod space;
pub mod standard;

use crate::semiring::{Matrix, Semiring};

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

/// Message payload of [`space::SpaceEfficientMm`]: an operand entry in
/// flight, tagged with its matrix and global coordinates. Both operands
/// reach a VP in one inbox, so the tag tells them apart, and each entry
/// carries its coordinates along as it moves.
///
/// Coordinates travel as `u16`, which makes a message 16 bytes instead of 24
/// for every 8-byte semiring (a third off both of that algorithm's mailbox
/// arenas): a matrix side is `√n`, so they fit for every `n ≤ 2^32` — no
/// tighter than the engine's own `u32` VP ids, since it runs on `v = n`. Its
/// builder asserts it. ([`standard::RecursiveMm`] needs neither tag nor
/// coordinates: it sends bare values and names an entry by its inbox
/// position.)
#[derive(Debug, Clone)]
pub enum MmMsg<V> {
    /// An entry of the left operand.
    A(u16, u16, V),
    /// An entry of the right operand.
    B(u16, u16, V),
}

/// Largest `n` whose matrix coordinates fit [`MmMsg`]'s `u16` fields.
const MAX_N: u64 = 1 << 32;

#[cfg(test)]
mod tests {
    use super::MmMsg;
    use crate::semiring::WrapU64;

    #[test]
    fn message_is_16_bytes_for_an_8_byte_semiring() {
        assert_eq!(std::mem::size_of::<MmMsg<WrapU64>>(), 16);
    }
}
