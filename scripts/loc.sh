#!/usr/bin/env sh
# Code lines per crate: the lines of `crates/*/src/**/*.rs` that are
# neither blank nor a `//` comment (`///` and `//!` docs included).
# Block comments and trailing comments count as code. Run from
# anywhere; prints one `crate lines` row per crate, then the total.
#
#   ./scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' -exec cat {} + |
        grep -cvE '^[[:space:]]*(//.*)?$' || true)
    printf '%-12s %6d\n' "$crate" "$n"
done | awk '{ print; total += $2 } END { printf "%-12s %6d\n", "total", total }'
