#!/usr/bin/env sh
# Code lines per crate: the lines of `crates/*/src/**/*.rs` that are
# neither blank nor a `//` comment (`///` and `//!` doc comments are
# skipped too).
# Block comments and trailing comments count as code. Run from
# anywhere; prints one `crate code library` row per crate, then the
# totals. `library` is the same count without the top-level
# `#[cfg(test)]` items (the in-file unit tests), attribute included.
#
# The last line, `settable N`, counts settable values: the `pub`
# fields of every `pub struct` under `crates/*/src` named `*Config`,
# `*Params`, `*Costs`, `Profile`, `Bed`, `Capture` or `PhysLayout`
# (`BulkParams`, per-call arguments, excluded). Quote it beside the
# line counts: a field exists only where two callers set it
# differently (DESIGN.md §3).
#
#   ./scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    find "$src" -name '*.rs' -exec awk -v crate="$crate" '
        FNR == 1 { skip = 0; armed = 0 }
        /^[[:space:]]*(\/\/.*)?$/ { next }
        { code++ }
        # A top-level `#[cfg(test)]` item runs to its `;` or to the
        # closing brace in column 0 (rustfmt layout).
        /^#\[cfg\(test\)\]/ { armed = 1; next }
        armed && !skip { skip = 1; if (/;[[:space:]]*$/ || /}[[:space:]]*$/) { skip = armed = 0 }; next }
        skip { if (/^}/) skip = armed = 0; next }
        { lib++ }
        END { printf "%-12s %6d %7d\n", crate, code, lib }
    ' {} +
done | awk '{ print; code += $2; lib += $3 } END { printf "%-12s %6d %7d\n", "total", code, lib }'

find crates/*/src -name '*.rs' -exec awk '
    /^pub struct [A-Za-z0-9_]+ *\{ *$/ {
        name = $3
        inside = name != "BulkParams" &&
            (name ~ /(Config|Params|Costs)$/ || name ~ /^(Profile|Bed|Capture|PhysLayout)$/)
        next
    }
    inside && /^}/ { inside = 0 }
    inside && /^    pub [a-z_0-9]+:/ { print }
' {} + | awk 'END { printf "%-12s %6d\n", "settable", NR }'
