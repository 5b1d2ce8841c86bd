#!/usr/bin/env bash
# Builds the benchmark (a no-op when fresh) and runs one `bench` command.
# The driver appends: --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the result object is the last stdout line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "$target/release/bench" --out "$here/out" "$@"
