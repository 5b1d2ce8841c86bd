#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, lint-clean workspace.
# Run from the repository root. All builds are offline (dependencies are
# in-tree shims; see crates/shims/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# Examples are real build targets (the serving-API walkthrough lives in
# one) but `cargo build` alone never compiles them — build them explicitly
# so tier-1 catches example rot.
cargo build --release --offline --examples
# And run them: each asserts against a reference computation (≈ 3 s in all),
# and they are the only end-to-end runs of `RecursiveMm` over the tropical
# and Boolean semirings.
for example in quickstart apsp_tropical reachability heat_diffusion heat_plate ranking spectrum; do
    cargo run --release --offline -q --example "$example" > /dev/null
done
cargo run --release --offline -q -p nob-machine --example job_server > /dev/null
cargo test -q --offline
cargo clippy -q --offline --all-targets -- -D warnings
cargo doc --no-deps -q --offline

# Engine-invariant lint (nob-lint): panic-freedom, checked arithmetic,
# unsafe hygiene + inventory baseline, SeqCst justification, telemetry/
# failpoint site coverage, and the zero-cost Instant::now gate — the
# comment/string/attribute-aware replacement for the old awk/grep gates
# (which missed code after a file's first #[cfg(test)] and fired inside
# strings). Rules, escape hatches, and the baseline workflow:
# crates/lint/README.md. The JSON report is deterministic and checked in.
cargo run --release --offline -q -p nob-lint -- --json LINT_report.json

# Chaos suite: deterministic fault injection over every instrumented
# failpoint × flavor × shard width; bounded so a hang (the exact failure
# class the suite guards against) fails tier-1 instead of wedging it.
timeout 60 cargo test -q --offline -p nob-machine --test chaos

# Exact-count gate: one toy-length traced run of the unmodified repo
# benchmark per workload — real sizes through its correctness +
# obliviousness gate — failing on any drift of the per-job counts checked
# in as scripts/exact_counts.txt (allocations, barrier rounds, planned
# steps, plan bytes, messages, supersteps, cache/pool fractions). Builds
# benchmark/target on first use; writes only to a temp dir. Its own failure
# modes are pinned by tests/exact_gate.rs in the `cargo test` above.
scripts/exact_gate.sh

# The repo benchmark is a stand-alone crate outside the workspace, so the
# workspace-wide `cargo test` above never sees its tests (manifest ==
# BENCHMARK.json, toy-size run of all four workloads).
cargo test --release --offline --manifest-path benchmark/Cargo.toml

# Code size — non-test lines and public-API items per crate — printed so
# every verification log carries the numbers the roadmap tracks.
scripts/loc.sh

echo "tier1: OK"
