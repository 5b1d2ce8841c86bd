//! # nob-algos — the network-oblivious algorithms of Bilardi et al.
//!
//! Executable implementations of every algorithm in Section 4 of
//! *Network-Oblivious Algorithms* (IPDPS'07 / JACM'16), written as static
//! superstep programs for the `nob-machine` VM:
//!
//! * [`mm`] — n-MM: the 8-way recursive algorithm (Thm. 4.2), the
//!   space-efficient variant (§4.1.1), and Cannon's flat algorithm as a
//!   class-C baseline;
//! * [`fft`] — n-FFT: the recursive √n-decomposition algorithm (Thm. 4.5)
//!   and the one-level binary-exchange baseline;
//! * [`sort`] — n-sort: recursive Columnsort (Thm. 4.8) and a bitonic
//!   baseline;
//! * [`stencil`] — the (n,1)-stencil diamond-DAG algorithm (Thm. 4.11) and a
//!   naive time-stepping baseline; [`stencil2`] — the (n,2)-stencil
//!   octahedron/tetrahedron algorithm (Thm. 4.13);
//! * [`broadcast`] — the σ-aware optimal algorithm of §4.5 and oblivious
//!   competitors (the impossibility study of Thms. 4.15/4.16);
//! * [`primitives`] — reduction, prefix sums, matrix transpose: the basic
//!   blocks used by the bigger algorithms and the ascend–descend protocol;
//! * [`semiring`] — the algebraic substrate for MM (numeric, Boolean,
//!   tropical);
//! * [`common`] — layout helpers (Morton order, bit reversal) shared
//!   across algorithms.
//!
//! Every algorithm declares the route of every step, so its program is
//! fully planned when built. Each message is a bare value named by its
//! inbox position, except those of [`stencil::DiamondStencil`] and
//! [`stencil2::OctaStencil`], which name the cell they carry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod common;
pub mod fft;
pub mod mm;
pub mod primitives;
pub mod semiring;
pub mod sort;
pub mod stencil;
pub mod stencil2;
