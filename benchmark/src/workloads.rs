//! The four workloads and the one way a job is issued to the program.
//!
//! Names are fixed (later issues cite them). Why each exists — which layers
//! it loads and which it bypasses — is recorded in `WORKLOADS` and, at
//! length, in `benchmark/README.md`.

use crate::inputs;
use nob_algos::fft::{naive_dft, BinaryExchangeFft, Complex};
use nob_algos::mm::standard::RecursiveMm;
use nob_algos::mm::MmInput;
use nob_algos::semiring::WrapU64;
use nob_algos::sort::ColumnSort;
use nob_core::telemetry::TelemetrySink;
use nob_core::{CommTrace, ModelError};
use nob_machine::{
    execute, run, JobServer, JobSpec, NobAlgorithm, Program, ProgramSource, RunOptions,
    ServerConfig, ShapeKey,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(name, why)` of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "fft_serial",
        "binary-exchange FFT v=2^14 on one worker: every step planned and fused, so plan, the serial engine loop and direct-write scatter do the work; shard, server and staging do none",
    ),
    (
        "mm_serial",
        "recursive MM n=4096 on one worker, 7 of 9 steps dynamic: staging, counting-sort scatter, streamed degree counters and per-message validation dominate; the planned path is bypassed",
    ),
    (
        "sort_sharded",
        "columnsort v=2^12 on two workers through the spawn-per-run driver: 213 planned steps load shard prepare, direct-grid windows, barriers and gang spawn/join on every job; server idle",
    ),
    (
        "serve_warm",
        "small FFT v=2^10 jobs on one JobServer with two shards under one shape key: admission, plan-cache hits, dispatch, slot rendezvous, pooled arenas and ticket wake-up on the validate-off path",
    ),
];

/// How a workload's jobs reach the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `nob_machine::run` with `RunOptions::workers = Some(workers)`,
    /// validation on.
    Direct {
        /// Executor width.
        workers: usize,
    },
    /// `JobServer::submit` → `JobTicket::wait` on a server of `shards`
    /// persistent workers, serving options (no validation, no trace).
    Served {
        /// Gang width.
        shards: usize,
    },
}

impl Driver {
    /// Threads that execute VP closures.
    pub fn width(self) -> usize {
        match self {
            Driver::Direct { workers } => workers,
            Driver::Served { shards } => shards,
        }
    }
}

/// Per-VP state type of a workload's algorithm.
pub type StateOf<W> = <<W as Workload>::Alg as NobAlgorithm>::State;
/// Message type of a workload's algorithm.
pub type MsgOf<W> = <<W as Workload>::Alg as NobAlgorithm>::Msg;

/// One benchmark workload: an algorithm at a fixed size, a seeded input
/// generator, the driver its jobs go through, and the algorithm's own
/// correctness check.
pub trait Workload {
    /// The algorithm under test.
    type Alg: NobAlgorithm<State: PartialEq + 'static, Msg: 'static> + Clone + Send + 'static;
    /// Owned problem input.
    type Input;

    /// The algorithm value.
    fn alg(&self) -> Self::Alg;
    /// Problem size `n` (here always `v(n) = n`).
    fn n(&self) -> usize;
    /// How jobs are issued.
    fn driver(&self) -> Driver;
    /// The input a seed stands for.
    fn input(&self, seed: u64) -> Self::Input;
    /// Initial VP states for an input (`NobAlgorithm::init`).
    fn init(&self, input: &Self::Input) -> Vec<StateOf<Self>>;
    /// The algorithm's own check of a job's final states against its input.
    fn check(
        &self,
        input: &Self::Input,
        states: Vec<StateOf<Self>>,
        seed: u64,
    ) -> Result<(), String>;

    /// `RunOptions` of a direct `run` equivalent to one of this workload's
    /// jobs: the timed configuration of a direct workload, and the
    /// comparison baseline (`server.overhead_us`, engine probes) of a
    /// served one.
    fn run_options(&self) -> RunOptions {
        match self.driver() {
            Driver::Direct { workers } => {
                RunOptions { workers: Some(workers), ..RunOptions::default() }
            }
            Driver::Served { shards } => {
                RunOptions { workers: Some(shards), validate: false, ..RunOptions::default() }
            }
        }
    }
}

/// Binary-exchange FFT at `n = v`, direct or served.
pub struct FftCase {
    /// Transform length.
    pub n: usize,
    /// Driver.
    pub driver: Driver,
}

/// `fft_serial`.
pub const FFT_SERIAL: FftCase = FftCase { n: 1 << 14, driver: Driver::Direct { workers: 1 } };
/// `serve_warm`.
pub const SERVE_WARM: FftCase = FftCase { n: 1 << 10, driver: Driver::Served { shards: 2 } };

/// Size of the reduced instance checked against the `O(n²)` DFT.
const DFT_CHECK_N: usize = 256;

fn max_abs(xs: &[Complex]) -> f64 {
    xs.iter().map(|x| x.norm_sq()).fold(0.0, f64::max).sqrt()
}

impl Workload for FftCase {
    type Alg = BinaryExchangeFft;
    type Input = Vec<Complex>;

    fn alg(&self) -> BinaryExchangeFft {
        BinaryExchangeFft
    }
    fn n(&self) -> usize {
        self.n
    }
    fn driver(&self) -> Driver {
        self.driver
    }
    fn input(&self, seed: u64) -> Vec<Complex> {
        inputs::signal(self.n, seed)
    }
    fn init(&self, input: &Vec<Complex>) -> Vec<StateOf<Self>> {
        BinaryExchangeFft.init(self.n, input)
    }

    fn check(
        &self,
        input: &Vec<Complex>,
        states: Vec<StateOf<Self>>,
        seed: u64,
    ) -> Result<(), String> {
        // Full size: Parseval, Σ|X|² = n·Σ|x|² (an O(n) necessary condition).
        let spectrum = BinaryExchangeFft.extract(self.n, states);
        let e_time: f64 = input.iter().map(|x| x.norm_sq()).sum();
        let e_freq: f64 = spectrum.iter().map(|x| x.norm_sq()).sum();
        if (e_freq - self.n as f64 * e_time).abs() > 1e-9 * e_freq.max(1.0) {
            return Err(format!("Parseval fails: {e_freq} vs {}", self.n as f64 * e_time));
        }
        // Reduced size: every bin against the O(n²) DFT of the same seed.
        let small = inputs::signal(DFT_CHECK_N, seed);
        let (got, _) = execute(&BinaryExchangeFft, DFT_CHECK_N, &small[..], &self.run_options())
            .map_err(|e| format!("reduced FFT failed: {e}"))?;
        let want = naive_dft(&small);
        let eps = 1e-9 * max_abs(&want).max(1.0);
        match got.iter().zip(&want).position(|(g, w)| !g.close_to(*w, eps)) {
            Some(k) => Err(format!("FFT bin {k} differs from the naive DFT")),
            None => Ok(()),
        }
    }
}

/// `mm_serial`: 8-way recursive matrix multiplication over wrapping `u64`.
pub struct MmSerial;

impl Workload for MmSerial {
    type Alg = RecursiveMm<WrapU64>;
    type Input = MmInput<WrapU64>;

    fn alg(&self) -> Self::Alg {
        RecursiveMm::default()
    }
    fn n(&self) -> usize {
        4096
    }
    fn driver(&self) -> Driver {
        Driver::Direct { workers: 1 }
    }
    fn input(&self, seed: u64) -> Self::Input {
        inputs::matrices(self.n(), seed)
    }
    fn init(&self, input: &Self::Input) -> Vec<StateOf<Self>> {
        self.alg().init(self.n(), input)
    }
    fn check(
        &self,
        input: &Self::Input,
        states: Vec<StateOf<Self>>,
        _seed: u64,
    ) -> Result<(), String> {
        let product = self.alg().extract(self.n(), states);
        if product == input.a.mul_reference(&input.b) {
            Ok(())
        } else {
            Err("product differs from Matrix::mul_reference".into())
        }
    }
}

/// `sort_sharded`: recursive Columnsort of `u64` keys on two workers.
pub struct SortSharded;

impl Workload for SortSharded {
    type Alg = ColumnSort<u64>;
    type Input = Vec<u64>;

    fn alg(&self) -> Self::Alg {
        ColumnSort::default()
    }
    fn n(&self) -> usize {
        1 << 12
    }
    fn driver(&self) -> Driver {
        Driver::Direct { workers: 2 }
    }
    fn input(&self, seed: u64) -> Vec<u64> {
        inputs::keys(self.n(), seed)
    }
    fn init(&self, input: &Vec<u64>) -> Vec<u64> {
        self.alg().init(self.n(), input)
    }
    fn check(&self, input: &Vec<u64>, states: Vec<u64>, _seed: u64) -> Result<(), String> {
        let out = self.alg().extract(self.n(), states);
        if !out.windows(2).all(|w| w[0] <= w[1]) {
            return Err("output is not sorted".into());
        }
        let mut want = input.clone();
        want.sort_unstable();
        if out == want {
            Ok(())
        } else {
            Err("output is not a permutation of the keys".into())
        }
    }
}

/// What one job returned, whichever driver ran it.
pub struct JobOut<S> {
    /// Final VP states.
    pub states: Vec<S>,
    /// Communication trace (absent under serving options).
    pub trace: Option<CommTrace>,
    /// Raw message log, when requested.
    pub message_log: Option<Vec<Vec<(u32, u32)>>>,
    /// Queue wait reported by an armed server.
    pub queue_wait: Option<Duration>,
    /// Service time reported by an armed server.
    pub service: Option<Duration>,
}

/// A job's result with the instants around the public calls that made it.
pub struct Timed<T> {
    /// The call's result.
    pub out: T,
    /// Just before `run` / `submit`.
    pub start: Instant,
    /// Between `submit` returning and `wait` starting (served, traced runs
    /// only).
    pub mid: Option<Instant>,
    /// Just after `run` / `wait` returned.
    pub end: Instant,
}

/// A warmed-up way to issue jobs: a built program plus options, or a live
/// server plus the spec its jobs are submitted under.
pub enum Runner<W: Workload> {
    /// Jobs are `run(&prog, states, &opts)`.
    Direct {
        /// The built (plan-compiled) program.
        prog: Program<StateOf<W>, MsgOf<W>>,
        /// Options of every job.
        opts: RunOptions,
    },
    /// Jobs are `server.submit(spec, states, Build(..))?.wait()`.
    Served {
        /// The live server.
        server: JobServer<StateOf<W>, MsgOf<W>>,
        /// Shape and options of every job.
        spec: JobSpec,
        /// Builder handed to the server with each job (opened on a cache
        /// miss only).
        alg: W::Alg,
        /// Problem size the builder builds for.
        n: usize,
    },
}

/// What a served job hands the server to build its program from: opened on
/// a plan-cache miss, dropped unopened on a hit.
pub fn build_source<A>(alg: &A, n: usize) -> ProgramSource<A::State, A::Msg>
where
    A: NobAlgorithm + Clone + Send + 'static,
{
    let alg = alg.clone();
    ProgramSource::Build(Box::new(move || alg.build(n)))
}

impl<W: Workload> Runner<W> {
    /// Issues one job and waits for its result. `want_mid` asks for the
    /// submit/wait boundary instant (one more clock read, traced runs only).
    pub fn job(
        &self,
        states: Vec<StateOf<W>>,
        want_mid: bool,
    ) -> Timed<Result<JobOut<StateOf<W>>, ModelError>> {
        match self {
            Runner::Direct { prog, opts } => {
                let start = Instant::now();
                let out = run(prog, states, opts);
                let end = Instant::now();
                let out = out.map(|r| JobOut {
                    states: r.states,
                    trace: Some(r.trace),
                    message_log: r.message_log,
                    queue_wait: None,
                    service: None,
                });
                Timed { out, start, mid: None, end }
            }
            Runner::Served { server, spec, alg, n } => {
                let start = Instant::now();
                let ticket = server.submit(spec.clone(), states, build_source(alg, *n));
                let mid = want_mid.then(Instant::now);
                let out = ticket.and_then(|t| t.wait());
                let end = Instant::now();
                let out = out.map(|r| JobOut {
                    states: r.states,
                    trace: r.trace,
                    message_log: r.message_log,
                    queue_wait: r.queue_wait,
                    service: r.service,
                });
                Timed { out, start, mid, end }
            }
        }
    }
}

/// The instants of one cold set-up. Phases that a driver does not have are
/// empty: a direct workload has no `server_new`, and a served one builds
/// its program inside the first job (a plan-cache miss), not before it.
pub struct SetupTimes {
    /// Set-up begins.
    pub start: Instant,
    /// `NobAlgorithm::build` (incl. `StepPlan` compile) returned.
    pub built: Instant,
    /// `NobAlgorithm::init` returned.
    pub inited: Instant,
    /// `JobServer::new` returned.
    pub served: Instant,
    /// The first job's result arrived (arena growth, plan-cache fill).
    pub end: Instant,
}

/// One cold set-up from scratch, up to and including the first job.
pub fn cold_setup<W: Workload>(
    w: &W,
    input: &W::Input,
    telemetry: Option<Arc<TelemetrySink>>,
) -> Result<(Runner<W>, SetupTimes), ModelError> {
    let start = Instant::now();
    let (runner, built, inited, served, states) = match w.driver() {
        Driver::Direct { .. } => {
            let prog = w.alg().build(w.n());
            let built = Instant::now();
            let states = w.init(input);
            let inited = Instant::now();
            let opts = RunOptions { telemetry, ..w.run_options() };
            (Runner::Direct { prog, opts }, built, inited, inited, states)
        }
        Driver::Served { shards } => {
            let states = w.init(input);
            let inited = Instant::now();
            let server =
                JobServer::new(ServerConfig { telemetry, ..ServerConfig::with_shards(shards) })?;
            let served = Instant::now();
            // One server only ever sees one program, so the algorithm's type
            // and size identify its shape.
            let shape = ShapeKey { algo: std::any::type_name::<W::Alg>(), variant: w.n() as u64 };
            let mut spec = JobSpec::new(shape);
            spec.opts.validate = false;
            spec.opts.want_trace = false;
            (Runner::Served { server, spec, alg: w.alg(), n: w.n() }, start, inited, served, states)
        }
    };
    let first = runner.job(states, false);
    first.out?;
    Ok((runner, SetupTimes { start, built, inited, served, end: first.end }))
}

/// Dispatches on the workload name, running `$body` with `$w` bound to the
/// workload value.
#[macro_export]
macro_rules! with_workload {
    ($name:expr, |$w:ident| $body:expr) => {
        match $name {
            "fft_serial" => {
                let $w = &$crate::workloads::FFT_SERIAL;
                Some($body)
            }
            "mm_serial" => {
                let $w = &$crate::workloads::MmSerial;
                Some($body)
            }
            "sort_sharded" => {
                let $w = &$crate::workloads::SortSharded;
                Some($body)
            }
            "serve_warm" => {
                let $w = &$crate::workloads::SERVE_WARM;
                Some($body)
            }
            _ => None,
        }
    };
}
