//! The algorithm abstraction: a network-oblivious algorithm bundles the
//! choice of `v(n)`, the initial data layout, the static superstep program,
//! and the output extraction.

use crate::engine::{run, run_folded, RunOptions, RunResult};
use crate::program::Program;
use nob_core::{CommTrace, ModelError};

/// A network-oblivious algorithm in the sense of the paper: specified on
/// `M(v(n))` with no machine parameters, executable on any folding.
///
/// Implementations must be *static*: the superstep sequence returned by
/// [`NobAlgorithm::build`] may depend on `n` only, never on the input values
/// (this is the Section-3 restriction under which the optimality theorem
/// holds, and it is what lets a single trace stand for all inputs of size `n`).
pub trait NobAlgorithm {
    /// Per-VP local memory.
    type State: Send + Clone;
    /// Message payload (each message is constant-size in the model).
    type Msg: Send;
    /// Problem input.
    type Input: ?Sized;
    /// Problem output.
    type Output;

    /// Human-readable algorithm name (used in test failure messages).
    fn name(&self) -> String;

    /// The number of virtual processors `v(n)` the algorithm is specified on.
    fn v(&self, n: usize) -> usize;

    /// Distributes the input across the `v(n)` VPs (the paper's assumptions
    /// on initial data layout live here).
    fn init(&self, n: usize, input: &Self::Input) -> Vec<Self::State>;

    /// Builds the static superstep program for input size `n`.
    fn build(&self, n: usize) -> Program<Self::State, Self::Msg>;

    /// Collects the output from the final VP states.
    fn extract(&self, n: usize, states: Vec<Self::State>) -> Self::Output;
}

/// Runs `alg` on `M(v(n))` at full granularity and returns the output
/// together with the communication trace.
pub fn execute<A: NobAlgorithm>(
    alg: &A,
    n: usize,
    input: &A::Input,
    opts: &RunOptions,
) -> Result<(A::Output, CommTrace), ModelError> {
    let states = alg.init(n, input);
    let prog = alg.build(n);
    let RunResult { states, trace, .. } = run(&prog, states, opts)?;
    Ok((alg.extract(n, states), trace))
}

/// Runs `alg` on `M(v(n))` keeping the raw message log (for the
/// ascend–descend protocol rewriter).
#[allow(clippy::type_complexity)]
pub fn execute_with_log<A: NobAlgorithm>(
    alg: &A,
    n: usize,
    input: &A::Input,
) -> Result<(A::Output, CommTrace, Vec<Vec<(u32, u32)>>), ModelError> {
    let states = alg.init(n, input);
    let prog = alg.build(n);
    let RunResult { states, trace, message_log, .. } =
        run(&prog, states, &RunOptions::with_log())?;
    let message_log = message_log.ok_or(ModelError::BadParameter {
        what: "message_log",
        reason: "engine returned no message log for a log-requesting run",
    })?;
    Ok((alg.extract(n, states), trace, message_log))
}

/// Runs the *folding* of `alg` on `M(p)`: the executable counterpart of the
/// analytic [`CommTrace::fold`]. Outputs must agree with [`execute`] (the
/// integration suite asserts this for every algorithm in the repository).
pub fn execute_folded<A: NobAlgorithm>(
    alg: &A,
    n: usize,
    input: &A::Input,
    p: usize,
    opts: &RunOptions,
) -> Result<(A::Output, CommTrace), ModelError> {
    let states = alg.init(n, input);
    let prog = alg.build(n);
    let RunResult { states, trace, .. } = run_folded(&prog, states, p, opts)?;
    Ok((alg.extract(n, states), trace))
}
