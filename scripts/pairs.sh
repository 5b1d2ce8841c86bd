#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark's gated (untraced)
# run — the evidence table ROADMAP's rules ask of every performance claim.
#
# No timing on this 2-vCPU host repeats within 10 %, and `peak_rss_mb` is a
# heap-layout number, so two trees are compared only run against run: the
# same workload, seed and window from both, back to back, the side that goes
# first alternating (parent on odd pairs, change on even). Both trees must be
# checkouts of this repo (`git archive <rev> | tar -x -C <dir>`) in sibling
# directories whose paths are equally long — the heap layout shifts with the
# length of the `--out`/exe path strings (.claude/skills/verify/SKILL.md).
# Each side builds into its own benchmark/target on its first run.
#
#   scripts/pairs.sh <parent-dir> <change-dir> [--pairs 10] [--seconds 20] [--seed 1] <workload>…
#   scripts/pairs.sh … --trace 1 --metric drive.job_p50_us --metric drive.jobs_per_sec:higher <workload>…
#
# Fails on `correct=false`, on `failed` > 0 and on a run that prints no
# status line. Prints, per workload × gated metric (both are lower-is-better):
# each side's median and quartiles, the relative difference of the medians
# (base: the parent's), and the pairs the change won (ties count for neither).
#
# `--trace 1` runs the same loop on the traced benchmark instead — where a
# saving or a cost shows, layer by layer — and tabulates only the metrics
# named by `--metric <name>` (repeatable, required with `--trace 1`; also
# narrows an untraced table). A metric is lower-is-better unless named as
# `<name>:higher`; a run that does not report a named metric fails the
# comparison.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-dir> <change-dir> [--pairs N] [--seconds S] [--seed N]" \
        "[--trace 0|1] [--metric NAME[:higher]]... <workload>..." >&2
    exit 2
}

for tool in awk sort mktemp realpath; do
    command -v "$tool" >/dev/null || { echo "pairs: required tool '$tool' not found" >&2; exit 1; }
done

pairs=10
seconds=20
seed=1
trace=0
metrics=()
higher=()
dirs=()
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a value}"; shift ;;
        --seconds) seconds="${2:?--seconds needs a value}"; shift ;;
        --seed) seed="${2:?--seed needs a value}"; shift ;;
        --trace) trace="${2:?--trace needs a value}"; shift ;;
        --metric)
            name="${2:?--metric needs a value}"; shift
            case "$name" in *:higher) name="${name%:higher}"; higher+=("$name") ;; esac
            metrics+=("$name") ;;
        -*) usage ;;
        *) if [ ${#dirs[@]} -lt 2 ]; then dirs+=("$(realpath "$1")"); else workloads+=("$1"); fi ;;
    esac
    shift
done
[ ${#dirs[@]} -eq 2 ] && [ ${#workloads[@]} -gt 0 ] || usage
case "$trace" in
    0) ;;
    1) [ ${#metrics[@]} -gt 0 ] || { echo "pairs: --trace 1 needs at least one --metric" >&2; usage; } ;;
    *) usage ;;
esac
parent="${dirs[0]}"
change="${dirs[1]}"
for d in "$parent" "$change"; do
    [ -f "$d/benchmark/run.sh" ] || { echo "pairs: $d/benchmark/run.sh not found" >&2; exit 1; }
done
if [ "$parent" = "$change" ] || [ ${#parent} -ne ${#change} ]; then
    echo "pairs: $parent and $change must be two directories with paths of equal length" \
        "(peak_rss_mb moves with the path strings)" >&2
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# One run of workload $3 from tree $2, recorded as side $1 of pair $4: every
# metric it reports, or only the named ones — then all of them must be there.
run_side() {
    local side="$1" dir="$2" w="$3" i="$4"
    bash "$dir/benchmark/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        > "$tmp/run.out" || true
    awk -v w="$w" -v side="$side" -v i="$i" -v want="${metrics[*]-}" '
        BEGIN { n = split(want, m, " "); for (k = 1; k <= n; k++) missing[m[k]] = 1 }
        $1 == "workload" { status = $0; ok = ($3 == "correct=true" && $5 == "failed=0") }
        ok && $2 ~ /^-?[0-9]+\.[0-9]+$/ && $4 == "(samples:" && (!n || $1 in missing) {
            print w, $1, side, i, $2; seen++; delete missing[$1]
        }
        END {
            for (k in missing) { ok = 0; status = "no metric `" k "` in the report" }
            if (ok && seen) exit 0
            if (!status) status = "no status line (did the run crash?)"
            print "pairs: " side " run " i " of " w ": " status > "/dev/stderr"; exit 1
        }' "$tmp/run.out" >> "$tmp/values"
}

for w in "${workloads[@]}"; do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run_side parent "$parent" "$w" "$i"; run_side change "$change" "$w" "$i"
        else
            run_side change "$change" "$w" "$i"; run_side parent "$parent" "$w" "$i"
        fi
        echo "pairs: $w pair $i of $pairs done" >&2
    done
done

echo "parent $parent, change $change: $pairs alternating pairs, --seconds $seconds --seed $seed --trace $trace"
# Sorted by (workload, metric, side, value), so each side's runs arrive in
# rank order and a quantile is an interpolated index.
sort -k1,1 -k2,2 -k3,3 -k5,5g "$tmp/values" | awk -v higher="${higher[*]-}" '
    function quantile(side, q,    pos, lo) {
        pos = 1 + (n[side] - 1) * q; lo = int(pos)
        if (lo >= n[side]) return ranked[side, n[side]]
        return ranked[side, lo] + (pos - lo) * (ranked[side, lo + 1] - ranked[side, lo])
    }
    function flush(    pm, cm, wins, ties, i, c, p) {
        if (!key) return
        for (i = 1; i <= n["parent"]; i++) {
            c = by_pair["change", i]; p = by_pair["parent", i]
            wins += (m in up) ? c > p : c < p
            ties += c == p
        }
        pm = quantile("parent", 0.5); cm = quantile("change", 0.5)
        printf "%-13s %-12s parent %10.6f [%10.6f, %10.6f]  change %10.6f [%10.6f, %10.6f]  %+7.2f %%  wins %d/%d%s%s\n",
            w, m, pm, quantile("parent", 0.25), quantile("parent", 0.75),
            cm, quantile("change", 0.25), quantile("change", 0.75),
            pm ? 100 * (cm - pm) / pm : 0, wins, n["parent"], ties ? " (" ties " tied)" : "",
            (m in up) ? " (higher wins)" : ""
        split("", ranked); split("", by_pair); split("", n)
    }
    ($1 " " $2) != key { flush(); key = $1 " " $2; w = $1; m = $2 }
    { ranked[$3, ++n[$3]] = $5 + 0; by_pair[$3, $4] = $5 + 0 }
    END { flush() }
    BEGIN {
        split(higher, h, " "); for (k in h) up[h[k]] = 1
        printf "%-13s %-12s %s\n", "workload", "metric", "median [q1, q3] per side, change vs parent median, pairs the change won"
    }'
