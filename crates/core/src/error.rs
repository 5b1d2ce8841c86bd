//! Error type shared by the model-stack constructors and checkers.

use std::fmt;

/// Where a worker that missed a gang barrier was last seen — the phase it
/// most recently *entered* per its telemetry slot, attached to
/// [`ModelError::GangStall`] when telemetry is armed so a stall report says
/// *where* the gang wedged, not just that it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalledWorker {
    /// The missing worker's shard index.
    pub worker: usize,
    /// Stable name of the last phase it entered (`None` if it never
    /// entered one — it wedged before its first instrumented phase).
    pub site: Option<&'static str>,
    /// Superstep of that last phase entry.
    pub superstep: u64,
}

impl fmt::Display for StalledWorker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site {
            Some(site) => {
                write!(f, "worker {} last in `{site}` at superstep {}", self.worker, self.superstep)
            }
            None => write!(f, "worker {} never entered a phase", self.worker),
        }
    }
}

/// Errors raised when constructing or combining model objects.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A processor / virtual-processor count that must be a power of two was not.
    NotPowerOfTwo {
        /// Name of the offending quantity (e.g. `"p"`, `"v"`).
        what: &'static str,
        /// The value supplied.
        value: usize,
    },
    /// A vector has the wrong length: a machine parameter vector (must be
    /// `log2 p` entries) or a run's initial states (one per VP).
    BadVectorLength {
        /// Name of the offending vector (`"g"`, `"ell"` or `"states"`).
        what: &'static str,
        /// Expected number of entries.
        expected: usize,
        /// Number of entries supplied.
        got: usize,
    },
    /// A parameter that must be non-negative (or finite) was not.
    BadParameter {
        /// Name of the offending parameter.
        what: &'static str,
        /// Human-readable description of the violation.
        reason: &'static str,
    },
    /// A fold target exceeded the machine size or was zero.
    BadFold {
        /// Requested number of processors.
        p: usize,
        /// Number of processing elements of the machine being folded.
        v: usize,
    },
    /// A superstep label outside the admissible range `[0, log v)`.
    BadLabel {
        /// The offending label.
        label: u32,
        /// `log2` of the machine size.
        log_v: u32,
    },
    /// A message violated the i-superstep cluster constraint: in an `i`-superstep
    /// a processing element may only address peers whose index agrees on the `i`
    /// most significant bits.
    ClusterViolation {
        /// Superstep label.
        label: u32,
        /// Source processing element.
        src: usize,
        /// Destination processing element.
        dst: usize,
    },
    /// A superstep's declared oblivious communication plan disagreed with the
    /// messages its SPMD closure actually sent (mis-declared route).
    PlanMismatch {
        /// Name of the offending superstep.
        step: &'static str,
        /// The processing element where the divergence was detected.
        vp: usize,
        /// Human-readable description of the divergence.
        reason: &'static str,
    },
    /// A virtual processor's SPMD closure panicked mid-superstep. The panic
    /// is caught at the phase boundary and downgraded to this structured
    /// error (uniform across the serial and sharded executors); the payload
    /// message is preserved when it was a string.
    VpPanic {
        /// Name of the superstep whose closure panicked.
        step: &'static str,
        /// The virtual processor that was executing when the panic unwound.
        vp: usize,
        /// The panic payload rendered as a string (`&str` / `String`
        /// payloads verbatim, otherwise a placeholder).
        payload: String,
    },
    /// The gang barrier's watchdog fired: at least one worker failed to
    /// arrive within the run's `stall_timeout`, so the surviving workers
    /// drained instead of deadlocking.
    GangStall {
        /// The barrier round (1-based) at which the gang stalled.
        round: u64,
        /// Number of workers that had not arrived when the watchdog fired.
        missing: usize,
        /// Where each missing worker was last seen, read from the run's
        /// telemetry slots. Empty when telemetry was disarmed (attribution
        /// needs the armed per-worker phase stamps).
        stalled: Vec<StalledWorker>,
    },
    /// A deterministic test fault fired at an instrumented failpoint
    /// (see [`crate::fault::FaultPlan`]). Never produced outside fault
    /// injection.
    FaultInjected {
        /// Name of the instrumented site that fired.
        site: &'static str,
        /// The shard (worker) that hit the site; `0` on the serial path.
        shard: usize,
        /// The superstep index at which the site fired.
        superstep: usize,
        /// How many times this site had matched before firing (0-based).
        occurrence: u64,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} = {value} is not a power of two")
            }
            ModelError::BadVectorLength { what, expected, got } => {
                write!(f, "vector {what} has {got} entries, expected {expected}")
            }
            ModelError::BadParameter { what, reason } => {
                write!(f, "parameter {what}: {reason}")
            }
            ModelError::BadFold { p, v } => {
                write!(f, "cannot fold a machine of {v} processing elements onto p = {p}")
            }
            ModelError::BadLabel { label, log_v } => {
                write!(f, "superstep label {label} outside [0, {log_v})")
            }
            ModelError::ClusterViolation { label, src, dst } => write!(
                f,
                "message {src} -> {dst} leaves its {label}-cluster in a {label}-superstep"
            ),
            ModelError::PlanMismatch { step, vp, reason } => write!(
                f,
                "superstep `{step}`: VP {vp} diverged from the declared communication plan ({reason})"
            ),
            ModelError::VpPanic { step, vp, payload } => {
                write!(f, "superstep `{step}`: VP {vp} panicked: {payload}")
            }
            ModelError::GangStall { round, missing, stalled } => {
                write!(
                    f,
                    "gang stalled at barrier round {round}: {missing} worker(s) never arrived"
                )?;
                for (i, s) in stalled.iter().enumerate() {
                    f.write_str(if i == 0 { " (" } else { "; " })?;
                    write!(f, "{s}")?;
                }
                if !stalled.is_empty() {
                    f.write_str(")")?;
                }
                Ok(())
            }
            ModelError::FaultInjected { site, shard, superstep, occurrence } => write!(
                f,
                "injected fault at site `{site}` (shard {shard}, superstep {superstep}, \
                 occurrence {occurrence})"
            ),
        }
    }
}

impl std::error::Error for ModelError {}
