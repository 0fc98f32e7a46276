#!/usr/bin/env bash
# The repo benchmark's one command. Run it from the root of a checkout.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       all four workloads, untraced then traced: every metric by name
#       with its unit, every result checked; copies land in benchmark/out/
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is its JSON
#   benchmark/run.sh --smoke     the full set at 1/50 size, same checks,
#                                numbers not for comparison
#   benchmark/run.sh --lint      cargo fmt --check and clippy -D warnings
#                                on this package (scripts/check.sh does
#                                not see it)
#
# Exits non-zero if the build fails or any result is incorrect.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
manifest="$here/Cargo.toml"

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --release --manifest-path "$manifest" -- -D warnings
    exit
fi

# The path dependencies are this repository's crates, built from source.
cargo build --offline --release --quiet --manifest-path "$manifest" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/nfsbench"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done

failed=0
for workload in seq_read seq_write meta_mix raid_read; do
    for trace in 0 1; do
        "$bin" --out "$here/out" --workload "$workload" --trace "$trace" "$@" |
            grep -v '^{' || failed=1
    done
done
exit "$failed"
