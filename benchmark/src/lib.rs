//! # nob-benchmark — the repo benchmark
//!
//! Four closed-loop workloads, two end-to-end metrics, and per-layer
//! numbers (the timings among them) from a separate traced run. Everything is measured from outside
//! the program, through its public API only; see `benchmark/README.md` for
//! the metric tables, the per-layer → end-to-end map and how to run it.

pub mod alloc_count;
pub mod cli;
pub mod drive;
pub mod inputs;
pub mod layers;
pub mod manifest;
pub mod procfs;
pub mod spans;
pub mod stats;
pub mod workloads;
