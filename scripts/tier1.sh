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
# The full suite, timed: the roadmap tracks tier-1 wall time, so every
# verification log carries it. Bounded, because it runs the chaos suite and
# the gang-lockstep tests: a gang hang (the failure class those tests guard
# against) fails tier-1 instead of wedging it. The bound is 600 s: a cold
# build plus the whole suite took 77 s on a 2-vCPU host, so it leaves ≈ 8×
# headroom for a slower or busier machine. `timeout` signals the whole
# process group, test binaries included, and kills it 10 s later.
test_start=$SECONDS
timeout -k 10 600 cargo test -q --offline
echo "tier1: cargo test -q took $((SECONDS - test_start)) s"
# Formatting: the workspace style is the root rustfmt.toml (the same as
# benchmark/rustfmt.toml), so a drift shows as a diff here.
cargo fmt --all --check
cargo clippy -q --offline --all-targets -- -D warnings
# Docs build warning-free: an intra-doc link to a deleted item fails here
# instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --offline

# Engine-invariant lint (nob-lint): panic-freedom, checked arithmetic,
# unsafe hygiene + inventory baseline, SeqCst justification, telemetry/
# failpoint site coverage, and the zero-cost Instant::now gate — the
# comment/string/attribute-aware replacement for the old awk/grep gates
# (which missed code after a file's first #[cfg(test)] and fired inside
# strings). Rules, escape hatches, and the baseline workflow:
# crates/lint/README.md. The JSON report is deterministic and checked in.
cargo run --release --offline -q -p nob-lint -- --json LINT_report.json

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
