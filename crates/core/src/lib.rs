//! # nob-core — the model stack for network-oblivious algorithms
//!
//! This crate implements the three computational models of Bilardi, Pietracaprina,
//! Pucci, Scquizzato and Silvestri, *Network-Oblivious Algorithms* (IPDPS'07; J. ACM
//! 63(1), 2016), together with the quantitative machinery the paper builds on them:
//!
//! * the **specification model** `M(v(n))` — labelled-superstep machines on which
//!   network-oblivious algorithms are written ([`model::SpecModel`]);
//! * the **evaluation model** `M(p, σ)` and its *communication complexity*
//!   `H_A(n, p, σ)` (Eq. (1) of the paper) ([`model::EvalModel`],
//!   [`metrics::CommTrace::comm_complexity`]);
//! * the **execution machine model** D-BSP(p, **g**, **ℓ**) and its *communication
//!   time* `D_A(n, p, g, ℓ)` (Eq. (2)) ([`model::DbspMachine`],
//!   [`metrics::CommTrace::comm_time`]);
//! * **folding** of an algorithm for `M(v)` onto any smaller `M(2^j)`
//!   ([`folding`]);
//! * **(α, p)-wiseness** (Def. 3.2) and **(γ, p)-fullness** (Def. 5.2)
//!   ([`wiseness`], [`fullness`]);
//! * the **optimality theorem** (Thm. 3.4) and its Section-5 extension (Thm. 5.3)
//!   as executable inequality checkers ([`theorem`]);
//! * the **communication lower bounds** quoted by the paper for matrix
//!   multiplication, FFT, sorting, stencils and broadcast ([`lower_bounds`]);
//! * **machine presets**: D-BSP parameter vectors describing meshes, hypercubes and
//!   uniform BSP machines ([`machines`]).
//!
//! Algorithms themselves live in the `nob-algos` crate and are executed by the
//! instrumented superstep virtual machine in `nob-machine`; both produce
//! [`metrics::CommTrace`] values that this crate evaluates.
//!
//! ## Conventions
//!
//! Processor and virtual-processor counts are powers of two. Following the paper,
//! `log x` denotes `max(1, log2 x)` where real-valued ([`model::paper_log2`]).
//! Superstep labels `i` range over `0 ≤ i < log v`; an `i`-superstep confines
//! communication and synchronization to *i-clusters*, the groups of `v/2^i`
//! processing elements whose indices share the `i` most significant bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod folding;
pub mod fullness;
pub mod lower_bounds;
pub mod machines;
pub mod metrics;
pub mod model;
pub mod telemetry;
pub mod theorem;
pub mod wiseness;

pub use error::{ModelError, StalledWorker};
pub use fault::{FaultArm, FaultKind, FaultPlan};
pub use metrics::{CommTrace, FoldedMetrics, SuperstepRecord};
pub use model::{DbspMachine, EvalModel, SpecModel};
pub use telemetry::{RunReport, ServerReport, TelemetrySink};
