//! A module with two safety invariants.
//!
//! # Safety invariants
//!
//! 1. The slab's prefix is initialized.
//! 2. Each inbox owns its messages
//!    (a continuation line, not an entry).

/// The prefix length (invariant 1).
pub struct Arena;
