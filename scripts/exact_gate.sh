#!/usr/bin/env bash
# Exact-count gate: the one performance gate this host can hold.
#
# A static network-oblivious program's communication is a function of `n`
# alone, so per job its messages, supersteps, planned steps, plan bytes,
# barrier rounds and heap allocations are constants of (program, v, width):
# bit-identical across seeds and window lengths. This script runs the
# unmodified repo benchmark's traced run at toy length once per workload —
# real sizes through its correctness + obliviousness gate — and fails on
# `correct=false`, on `failed` > 0, or when any of the counts differs from
# scripts/exact_counts.txt: a new allocation, a lost fusion, an extra
# barrier — the regressions timing cannot resolve here. Nothing is skipped:
# a missing tool or an unreadable report fails the gate.
#
#   scripts/exact_gate.sh            check (tier-1)
#   scripts/exact_gate.sh --seed 2   other inputs, same counts
#   scripts/exact_gate.sh --update   rewrite the baseline after an intended change
set -euo pipefail

for tool in cargo awk diff mktemp dirname cp rm; do
    command -v "$tool" >/dev/null \
        || { echo "exact_gate: required tool '$tool' not found" >&2; exit 1; }
done
cd "$(dirname "$0")/.."

baseline=scripts/exact_counts.txt
workloads="fft_serial mm_serial sort_sharded serve_warm"
metrics="program.steps plan.planned_steps plan.bytes
    mailbox.allocs_per_job mailbox.alloc_kb_per_job mailbox.allocs_job_spread mailbox.arena_peak_kb
    shard.rounds_per_job metrics.msgs_per_job metrics.supersteps_per_job
    server.cache_hit_frac server.cache_evictions server.pool_reuse_frac server.serial_jobs"

seed=1
update=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="${2:?--seed needs a value}"; shift ;;
        --update) update=1 ;;
        *) echo "usage: $0 [--seed N] [--update]" >&2; exit 2 ;;
    esac
    shift
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for w in $workloads; do
    # The status line the run prints is what counts, not its exit code (a
    # crash prints none). `--out` keeps benchmark/out and the tree untouched.
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds 0.5 --trace 1 --out "$tmp" \
        > "$tmp/$w.out" || true
    awk -v w="$w" -v want="$metrics" '
        BEGIN { n = split(want, m, " "); for (i = 1; i <= n; i++) keep[m[i]] = 1 }
        $1 == "workload" { status = $0; ok = ($3 == "correct=true" && $5 == "failed=0") }
        ($1 in keep) && $2 ~ /^-?[0-9]+\.[0-9]+$/ {
            v = $2; sub(/0+$/, "", v); sub(/\.$/, "", v); print w, $1, v; seen++
        }
        END {
            if (!ok) status = w ": " (status ? status : "no status line (did the run crash?)")
            else if (seen != n) status = w ": " seen " of " n " exact metrics reported"
            else exit 0
            print "exact_gate: " status > "/dev/stderr"; exit 1
        }' "$tmp/$w.out" >> "$tmp/counts"
done

if [ "$update" = 1 ]; then
    cp "$tmp/counts" "$baseline"
    echo "exact_gate: wrote $baseline"
elif diff "$baseline" "$tmp/counts" >&2; then
    echo "exact_gate: OK (every exact count matches $baseline; correct=true, failed=0 on: $workloads)"
else
    echo "exact_gate: exact counts drifted ('<' $baseline, '>' this tree);" \
        "if the change is intended, re-run with --update and commit the file" >&2
    exit 1
fi
