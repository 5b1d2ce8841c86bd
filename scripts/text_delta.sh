#!/usr/bin/env bash
# Text-size delta of the benchmark binary between two trees: the binary's
# resident text is part of every workload's `peak_rss_mb`, so a change
# reports it next to its timings.
#
#   scripts/text_delta.sh <parent-dir> <change-dir>
#
# Reads `benchmark/target/release/bench` of each tree (build it first, e.g.
# with one `bash <dir>/benchmark/run.sh` run, or `scripts/pairs.sh`, which
# builds both). Prints the `text` column of `size` for both and their
# difference, then the 15 symbols whose size moved most, from
# `nm --size-sort -S -C`: sizes summed per demangled name with the
# `::h<hash>` suffix stripped, so the copies of one generic function count as
# one symbol and a hash that changed is not a move. Like `pairs.sh`, refuses
# two directories whose paths differ in length, so the two binaries are the
# ones `pairs.sh` would have measured.
set -euo pipefail

usage() {
    echo "usage: $0 <parent-dir> <change-dir>" >&2
    exit 2
}

[ $# -eq 2 ] || usage
for tool in size nm awk sort mktemp realpath; do
    command -v "$tool" >/dev/null || { echo "text_delta: required tool '$tool' not found" >&2; exit 1; }
done
parent="$(realpath "$1")"
change="$(realpath "$2")"
if [ "$parent" = "$change" ] || [ ${#parent} -ne ${#change} ]; then
    echo "text_delta: $parent and $change must be two directories with paths of equal length" \
        "(as scripts/pairs.sh requires)" >&2
    exit 1
fi
bin=benchmark/target/release/bench
for d in "$parent" "$change"; do
    [ -f "$d/$bin" ] || { echo "text_delta: $d/$bin not found (build the benchmark first)" >&2; exit 1; }
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# `size` in its default (Berkeley) format: `text` is the first column of the
# second line.
text() { size "$1" | awk 'NR == 2 { print $1 }'; }
# `<bytes>\t<name>` per symbol name, hash suffix stripped, sizes summed; a
# binary without a symbol table yields nothing.
symbols() {
    nm --size-sort -S -C -t d "$1" 2>/dev/null | awk '
        NF >= 4 {
            name = $4
            for (i = 5; i <= NF; i++) name = name " " $i
            sub(/::h[0-9a-f]+$/, "", name)
            sum[name] += $2
        }
        END { for (n in sum) printf "%d\t%s\n", sum[n], n }'
}

pt="$(text "$parent/$bin")"
ct="$(text "$change/$bin")"
echo "text  parent $pt  change $ct  delta $(awk -v p="$pt" -v c="$ct" \
    'BEGIN { printf "%+d B (%+.2f %%)", c - p, p ? 100 * (c - p) / p : 0 }')"

symbols "$parent/$bin" > "$tmp/parent"
symbols "$change/$bin" > "$tmp/change"
awk -F '\t' '
    FILENAME == ARGV[1] { p[$2] = $1; seen[$2] = 1; next }
    { c[$2] = $1; seen[$2] = 1 }
    END {
        for (n in seen) {
            d = c[n] - p[n]
            if (d) printf "%d\t%+d\t%d\t%d\t%s\n", d < 0 ? -d : d, d, p[n], c[n], n
        }
    }' "$tmp/parent" "$tmp/change" | sort -t "$(printf '\t')" -k1,1nr -k5,5 > "$tmp/movers"
# Not `head`: under pipefail, a `sort` cut off mid-write fails the script.
awk 'NR <= 15' "$tmp/movers" > "$tmp/top"
if [ -s "$tmp/top" ]; then
    echo "top movers (bytes: delta, parent -> change, symbol):"
    awk -F '\t' '{ printf "  %9s  %8d -> %8d  %s\n", $2, $3, $4, $5 }' "$tmp/top"
else
    echo "no symbol's size moved"
fi
