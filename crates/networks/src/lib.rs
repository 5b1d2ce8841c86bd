//! # nob-networks — point-to-point network simulators
//!
//! The execution machine model of the paper is D-BSP because, per Bilardi,
//! Pietracaprina and Pucci (Euro-Par'99), a logarithmic number of per-cluster
//! bandwidth/latency parameters describes a large class of point-to-point
//! networks reasonably well. This crate grounds that premise for the
//! repository's machine presets: it simulates store-and-forward packet
//! routing on actual 2D-mesh and hypercube topologies, measures the delivery
//! time of h-relations confined to nested clusters, and fits per-cluster
//! `(g_i, ℓ_i)` pairs that can be compared against
//! [`nob_core::machines::mesh2d`] / [`nob_core::machines::hypercube`] and
//! used to evaluate traces (`tests/model_consistency.rs`).
//!
//! Processor indices use the same nested-cluster numbering as D-BSP: for the
//! mesh, processor `i` sits at the Morton position of `i`, so an `i`-cluster
//! is an aligned submesh; for the hypercube, clusters are subcubes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fit;
pub mod router;
pub mod topology;

pub use fit::{fit_dbsp, simulate_trace, FitReport};
pub use router::route_h_relation;
pub use topology::{Hypercube, LinearArray, Mesh2D, Topology};
