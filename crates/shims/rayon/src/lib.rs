//! Offline shim for the `rayon` crate (see `crates/shims/README.md`).
//!
//! The workspace uses exactly one thing of rayon's: the default worker
//! width, [`current_num_threads`]. There is no pool behind it — the engine
//! runs its shards on its own gang (`nob_machine::shard`), so this crate
//! spawns nothing and only resolves a number, once per process.

#![forbid(unsafe_code)]

use std::sync::OnceLock;

/// The default worker width: the `NOB_THREADS` environment variable when it
/// is set to an integer ≥ 1, else `std::thread::available_parallelism`
/// (1 if that is unknown). Resolved on first call and fixed from then on.
pub fn current_num_threads() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let cpus = || std::thread::available_parallelism().map_or(1, |n| n.get());
        match std::env::var("NOB_THREADS") {
            Err(_) => cpus(),
            Ok(raw) => raw.trim().parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                eprintln!("NOB_THREADS={raw:?} is not a positive integer; ignoring");
                cpus()
            }),
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn pool_width_is_reported() {
        assert!(super::current_num_threads() >= 1);
    }
}
