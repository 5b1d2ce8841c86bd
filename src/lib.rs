//! # network-oblivious
//!
//! An executable implementation of Bilardi, Pietracaprina, Pucci, Scquizzato
//! and Silvestri, *Network-Oblivious Algorithms* (IPDPS'07; J. ACM 63(1),
//! 2016): the three-model framework, the optimality theorems, the Section-4
//! algorithm suite, and the network simulators that ground the D-BSP
//! execution model.
//!
//! A network-oblivious algorithm is specified once, on a machine whose only
//! parameter is the input size, and then runs — *unchanged* — on machines
//! with any processor count and any bandwidth/latency hierarchy. This crate
//! re-exports the four subsystems:
//!
//! * [`core`] — models, folding, communication metrics (`H`, `D`),
//!   wiseness/fullness, the optimality theorems, lower bounds, machine
//!   presets;
//! * [`machine`] — the instrumented superstep VM (full-granularity and
//!   folded execution, the ascend–descend protocol);
//! * [`algos`] — matrix multiplication, FFT, Columnsort, stencils,
//!   broadcast, primitives, and the class-C baselines;
//! * [`networks`] — packet-level mesh/array/hypercube simulators and
//!   D-BSP parameter fitting.
//!
//! ## A complete round trip
//!
//! ```
//! use network_oblivious::algos::mm::standard::RecursiveMm;
//! use network_oblivious::algos::mm::MmInput;
//! use network_oblivious::algos::semiring::{Matrix, WrapU64};
//! use network_oblivious::core::{lower_bounds, machines, wiseness};
//! use network_oblivious::machine::{execute, execute_folded, RunOptions};
//!
//! // An n-MM instance (n = 64 entries per matrix).
//! let a = Matrix::from_fn(8, |i, j| WrapU64((3 * i + j) as u64));
//! let b = Matrix::from_fn(8, |i, j| WrapU64((i + 5 * j) as u64));
//! let input = MmInput::new(a.clone(), b.clone());
//!
//! // 1. Execute the oblivious algorithm on the specification model M(64).
//! let alg = RecursiveMm::<WrapU64>::default();
//! let (product, trace) = execute(&alg, 64, &input, &RunOptions::default()).unwrap();
//! assert_eq!(product, a.mul_reference(&b));
//!
//! // 2. One run yields the metrics of every folding (Eq. 1).
//! let h = trace.comm_complexity(16, 2.0);
//! assert!(h / lower_bounds::mm(64, 16, 2.0) < 16.0); // Θ(1)-optimal shape
//!
//! // 3. …and the communication time on any D-BSP machine (Eq. 2).
//! let d = trace.comm_time(&machines::mesh2d(16));
//! assert!(d > 0.0);
//!
//! // 4. The algorithm is (Θ(1), v)-wise, as Theorem 4.2 claims…
//! assert!(wiseness::alpha_max(&trace, 64).alpha >= 0.25);
//!
//! // 5. …and folding actually runs: same product on 8 processors.
//! let (folded, _) = execute_folded(&alg, 64, &input, 8, &RunOptions::default()).unwrap();
//! assert_eq!(folded, product);
//! ```
//!
//! The paper's statements are asserted by the test suite, next to the code
//! they are about: each algorithm's `communication_complexity_matches_theorem_*`
//! test bounds its `H` against the Section-4 closed form and lower bound,
//! `tests/optimality.rs` checks Corollaries 4.3, 4.6 and 4.9 through
//! Theorem 3.4, `tests/model_consistency.rs` Lemma 3.1, wiseness, the exact
//! folded h-relations and the network fits, and `tests/protocol.rs`
//! Theorem 5.3.
//!
//! See the [`machine`] crate docs for the system inventory,
//! `benchmark/README.md` for the repo benchmark, `ROADMAP.md` and
//! `CHANGES.md` for where the code is going and has been, and `examples/`
//! for domain scenarios.

pub use nob_algos as algos;
pub use nob_core as core;
pub use nob_machine as machine;
pub use nob_networks as networks;
