#!/usr/bin/env bash
# Non-test code lines per crate, for tracking code size like performance.
#
# Usage: scripts/loc.sh [TREE]     (TREE defaults to this repository)
#
# Counts the `.rs` files under `crates/{core,machine,algos}/src` of TREE.
# A line counts when it is
#   * not blank,
#   * not a comment: its first non-space characters are not `//` (so `///`
#     and `//!` docs are out too) and it is not inside a `/* … */` block,
#   * not inside a `#[cfg(test)]` module: from the `mod … {` that follows
#     the attribute to the brace that closes it (braces counted per line).
# Code followed by a trailing comment counts. Prints one `crate lines` row
# per crate and a `total` row, so two trees diff line by line.
set -euo pipefail
tree="${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { depth = 0; pending = 0; block = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (block) { if (line ~ /\*\//) block = 0; next }
            if (line ~ /^\/\*/) { if (line !~ /\*\//) block = 1; next }
            if (depth > 0) {
                depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                next
            }
            if (line == "" || line ~ /^\/\//) next
            if (line ~ /^#\[cfg\(test\)\]/) { pending = 1; next }
            if (pending && line ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ *\{/) {
                depth = gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
                pending = 0
                next
            }
            pending = 0
            n++
        }
        END { print n + 0 }'
}

total=0
for crate in core machine algos; do
    lines=$(count "$tree/crates/$crate/src")
    printf '%-8s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-8s %6d\n' total "$total"
