#!/usr/bin/env bash
# Non-test code lines and public-API size per crate, for tracking code size
# like performance.
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
# Code followed by a trailing comment counts.
#
# The public-API size is an approximation read off the same lines: a
# counted line whose first token is a bare `pub` (not `pub(crate)`,
# `pub(super)` or any other `pub(…)`), followed by optional `unsafe`/
# `const`/`async` and one of `fn struct enum trait type const static mod
# use`, is one item. So it counts `pub` visibility, not reachability from
# the crate root (a `pub fn` of a private type counts), a `pub use` of a
# brace list is one item, and `pub` fields and enum variants are none.
#
# Prints one `crate lines` row per crate and a `total` row, then one
# `api crate items` row per crate, so two trees diff line by line.
set -euo pipefail
tree="${1:-$(dirname "$0")/..}"

# Prints `lines items` for the `.rs` files under $1.
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
            if (line ~ /^pub ((unsafe|const|async) )*(fn|struct|enum|trait|type|const|static|mod|use)[ \t]/) api++
        }
        END { print n + 0, api + 0 }'
}

total=0
apis=()
for crate in core machine algos; do
    read -r lines items < <(count "$tree/crates/$crate/src")
    printf '%-8s %6d\n' "$crate" "$lines"
    total=$((total + lines))
    apis+=("$(printf 'api %-8s %6d' "$crate" "$items")")
done
printf '%-8s %6d\n' total "$total"
printf '%s\n' "${apis[@]}"
