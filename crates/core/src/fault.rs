//! Deterministic fault injection for the executors.
//!
//! A [`FaultPlan`] is a set of *arms*, each addressing an instrumented
//! failpoint by `(site, shard, superstep, occurrence)` and specifying what
//! to inject when it matches: a structured [`ModelError::FaultInjected`] or
//! a panic. Executors thread a plan through their run options and call
//! [`FaultPlan::check`] at phase boundaries; a run without a plan pays one
//! `Option` discriminant test per phase and nothing per message, so the hot
//! path stays allocation- and branch-free (pinned by the engine's counting
//! allocator tests).
//!
//! # Addressing and determinism
//!
//! Sites are named by `&'static str` constants owned by the executor that
//! instruments them (e.g. `"shard:gather"`, `"serial:exec"`). An arm may
//! pin the shard and superstep exactly or wildcard either; `occurrence`
//! selects the n-th (0-based) match of the remaining coordinates. An arm
//! with exact shard *and* superstep fires at a deterministic point of the
//! execution. A wildcard arm on a multi-worker run matches in whatever
//! order the gang's shards reach the site, so only "fires at least once"
//! is deterministic — exact addressing is what the chaos suite sweeps.
//!
//! Arm hit counters are interior-mutable so a plan can be shared as
//! `Arc<FaultPlan>` across the worker gang; call [`FaultPlan::reset`]
//! before reusing a plan for a second run.

use crate::error::ModelError;
use std::sync::atomic::{AtomicU64, Ordering};

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return a [`ModelError::FaultInjected`] from the instrumented phase,
    /// exercising the executor's structured error path.
    Error,
    /// Panic at the instrumented site, exercising the executor's
    /// unwind-recovery path (`catch_unwind` + gang abort).
    Panic,
}

/// One armed failpoint: fire `kind` at the `occurrence`-th match of
/// `(site, shard, superstep)`.
#[derive(Debug)]
pub struct FaultArm {
    /// The instrumented site name this arm matches.
    pub site: &'static str,
    /// Shard (worker index) to match; `None` matches every shard.
    pub shard: Option<usize>,
    /// Superstep index to match; `None` matches every superstep.
    pub superstep: Option<usize>,
    /// Fire on the n-th (0-based) match of the coordinates above.
    pub occurrence: u64,
    /// What to inject when the arm fires.
    pub kind: FaultKind,
    hits: AtomicU64,
}

impl FaultArm {
    /// Builds an arm. See the field docs for the matching semantics.
    pub fn new(
        site: &'static str,
        shard: Option<usize>,
        superstep: Option<usize>,
        occurrence: u64,
        kind: FaultKind,
    ) -> Self {
        FaultArm { site, shard, superstep, occurrence, kind, hits: AtomicU64::new(0) }
    }

    /// How many times this arm's coordinates have matched so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// A deterministic fault-injection plan: a set of [`FaultArm`]s checked by
/// the executors at their instrumented phase boundaries.
#[derive(Debug, Default)]
pub struct FaultPlan {
    arms: Vec<FaultArm>,
    fired: AtomicU64,
}

impl FaultPlan {
    /// An empty plan (no arms; every check passes).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an arm to the plan. Plans are built before the run starts;
    /// arming requires `&mut self`, checking only `&self`.
    pub fn arm(&mut self, arm: FaultArm) -> &mut Self {
        self.arms.push(arm);
        self
    }

    /// Convenience: a single-arm plan injecting a [`ModelError`] at the
    /// first match of `(site, shard, superstep)`.
    pub fn error_at(site: &'static str, shard: usize, superstep: usize) -> Self {
        let mut plan = FaultPlan::new();
        plan.arm(FaultArm::new(site, Some(shard), Some(superstep), 0, FaultKind::Error));
        plan
    }

    /// Convenience: a single-arm plan panicking at the first match of
    /// `(site, shard, superstep)`.
    pub fn panic_at(site: &'static str, shard: usize, superstep: usize) -> Self {
        let mut plan = FaultPlan::new();
        plan.arm(FaultArm::new(site, Some(shard), Some(superstep), 0, FaultKind::Panic));
        plan
    }

    /// Evaluates every arm against an instrumented site. Called by the
    /// executors at phase boundaries with the worker's shard index and the
    /// current superstep. Fires the first matching arm whose occurrence
    /// count is reached: `FaultKind::Error` returns the structured error,
    /// `FaultKind::Panic` unwinds with a recognizable message.
    pub fn check(
        &self,
        site: &'static str,
        shard: usize,
        superstep: usize,
    ) -> Result<(), ModelError> {
        for arm in &self.arms {
            if arm.site != site {
                continue;
            }
            if arm.shard.is_some_and(|s| s != shard) {
                continue;
            }
            if arm.superstep.is_some_and(|t| t != superstep) {
                continue;
            }
            let seen = arm.hits.fetch_add(1, Ordering::Relaxed);
            if seen == arm.occurrence {
                self.fired.fetch_add(1, Ordering::Relaxed);
                match arm.kind {
                    FaultKind::Error => {
                        return Err(ModelError::FaultInjected {
                            site,
                            shard,
                            superstep,
                            occurrence: seen,
                        })
                    }
                    // allow-panic: this IS the injected fault — the panic
                    // flavor exists to traverse the executor's real unwind
                    // path.
                    FaultKind::Panic => panic!(
                        "injected panic at site `{site}` (shard {shard}, superstep {superstep})"
                    ),
                }
            }
        }
        Ok(())
    }

    /// How many arms have fired since construction or the last [`reset`].
    ///
    /// [`reset`]: FaultPlan::reset
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Zeroes all hit and fired counters so the plan can drive a fresh run.
    pub fn reset(&self) {
        self.fired.store(0, Ordering::Relaxed);
        for arm in &self.arms {
            arm.hits.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_arm_fires_once_at_its_occurrence() {
        let mut plan = FaultPlan::new();
        plan.arm(FaultArm::new("site:a", Some(1), Some(2), 1, FaultKind::Error));
        // Wrong shard / step / site: no match, no hit.
        assert_eq!(plan.check("site:a", 0, 2), Ok(()));
        assert_eq!(plan.check("site:a", 1, 0), Ok(()));
        assert_eq!(plan.check("site:b", 1, 2), Ok(()));
        // First match is occurrence 0 — arm wants occurrence 1.
        assert_eq!(plan.check("site:a", 1, 2), Ok(()));
        assert_eq!(
            plan.check("site:a", 1, 2),
            Err(ModelError::FaultInjected {
                site: "site:a",
                shard: 1,
                superstep: 2,
                occurrence: 1
            })
        );
        assert_eq!(plan.fired(), 1);
        // Past its occurrence the arm stays quiet.
        assert_eq!(plan.check("site:a", 1, 2), Ok(()));
    }

    #[test]
    fn wildcards_match_any_shard_and_step() {
        let mut plan = FaultPlan::new();
        plan.arm(FaultArm::new("site:w", None, None, 0, FaultKind::Error));
        assert!(plan.check("site:w", 7, 31).is_err());
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn reset_rearms_the_plan() {
        let plan = FaultPlan::error_at("site:r", 0, 0);
        assert!(plan.check("site:r", 0, 0).is_err());
        assert_eq!(plan.check("site:r", 0, 0), Ok(()));
        plan.reset();
        assert_eq!(plan.fired(), 0);
        assert!(plan.check("site:r", 0, 0).is_err());
    }

    #[test]
    fn panic_arm_unwinds_with_the_site_name() {
        let plan = FaultPlan::panic_at("site:p", 0, 0);
        let err = std::panic::catch_unwind(|| {
            let _ = plan.check("site:p", 0, 0);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("site:p"), "payload names the site: {msg}");
    }
}
