#!/usr/bin/env sh
# Repo health gate: formatting, lints, build, tests, the smoke legs of
# every harness, the benchmark package, and a check that none of it
# moved a recorded artifact under results/. Run from the repo root.
#
#   ./scripts/check.sh          # everything (tier-1 plus lints + smoke)
#   SKIP_TESTS=1 ./scripts/check.sh   # lints and smoke only
set -eu

cd "$(dirname "$0")/.."

# Every artifact a leg must leave behind, non-empty. (That the JSON ones
# parse is checked where they are written: `BenchJson::render` and the
# trace exporters run `sim_core::trace::validate_json` first.)
need() {
    for f in "$@"; do
        [ -s "$f" ] || { echo "missing or empty $f" >&2; exit 1; }
    done
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps with -D warnings (a link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [ "${SKIP_TESTS:-0}" != "1" ]; then
    echo "==> cargo build --release"
    cargo build --release
    echo "==> cargo test -q"
    cargo test -q
    echo "==> compose --ignored wide_matrix fault_matrix (the release-only composition matrices: 384 fault-free runs, 640 points under faults each run twice; named, so the pinned known-defect test stays out)"
    cargo test -q --release -p workloads --test compose -- --ignored wide_matrix fault_matrix
fi

echo "==> simperf --smoke (poll counts of the executor and READ loops by equality + span-tracing overhead gate <=10%)"
cargo run --release -p bench --bin simperf -- --smoke

echo "==> ablation --batching --smoke (zero-copy >= 1.3x; doorbells/op and interrupts/op < 1 at depth 4)"
cargo run --release -p bench --bin ablation -- --batching --smoke

echo "==> ablation --write-path --smoke (zero-copy WRITE >= 1.3x; copied_bytes frozen; Cache still the one bouncing strategy)"
cargo run --release -p bench --bin ablation -- --write-path --smoke

echo "==> ablation --inline --smoke (reply-chunk gate: pages registered per READDIR within the NFS_DTSIZE bound, inline replies faster than long replies, same-seed determinism)"
cargo run --release -p bench --bin ablation -- --inline --smoke

echo "==> ablation --rfp --smoke (reply-slot gate: metadata p50 at or below Send baseline, server sends/op ~0 and doorbells/op 0 in RFP mode, same-seed determinism)"
cargo run --release -p bench --bin ablation -- --rfp --smoke
need results/BENCH_rfp.json

echo "==> chaos --smoke (fault sweep + crash-matrix gate: power-fail mid-burst, WAL replay, re-drive, zero corruption)"
cargo run --release -p bench --bin chaos -- --smoke

echo "==> adversary --smoke (hostile-client catalog, 20% goodput bound)"
cargo run --release -p bench --bin adversary -- --smoke

echo "==> chaos --failover --smoke (replicated-cluster kill matrix: promotion, zero corruption, exactly-once, <=15% replication overhead, same-seed determinism, observability exports)"
cargo run --release -p bench --bin chaos -- --failover --smoke
# The observability leg of the failover gate exports the cluster-wide
# causal trace and the promotion timeline; make sure they landed and
# the trace carries Perfetto flow events (client -> primary -> backup).
need results/trace_failover_cluster.json results/timeline_failover.csv results/BENCH_failover.json
grep -q '"ph":"s"' results/trace_failover_cluster.json || {
    echo "trace_failover_cluster.json has no flow events" >&2; exit 1; }
echo "    results/trace_failover_cluster.json ok (flow events present)"

echo "==> loadcurve --smoke (open-loop overload gate: p99 bounded past saturation, goodput plateau, collapse demonstrated with shedding off, 1-hog fairness, same-seed determinism)"
cargo run --release -p bench --bin loadcurve -- --smoke
need results/loadcurve.csv results/BENCH_loadcurve.json

echo "==> fig5 --anatomy (traced-workload smoke + trace JSON validation)"
cargo run --release -p bench --bin fig5 -- --anatomy >/dev/null
need results/trace_fig5_rr.json results/trace_fig5_rw.json

echo "==> trace_one_op example (Figure 4 as one READ's span tree; exits non-zero if a step is missing)"
cargo run --release -p bench --example trace_one_op >/dev/null

echo "==> benchmark --lint + --smoke (the stand-alone benchmark package compiles against these crates' public names; nothing above builds it)"
bash benchmark/run.sh --lint
bash benchmark/run.sh --smoke >/dev/null

echo "==> results/benchmark_smoke_pin.txt + benchmark_smoke_counts.txt (the four benchmark beds: every simulated end-to-end number in the first, the host's counted work — polls, heap allocations and bytes per op — in the second)"
# Two files so that "nothing simulated moved" is a file nobody touched:
# a change that makes the simulator cheaper re-records the counts and
# leaves the pin alone. Host speed, ladder, set-up and peak-RSS numbers
# are wall clock (or the kernel's page accounting) and stay out of
# both; the counts repeat to the last digit.
pin() { # $1: which metric names, as an ERE
    for f in benchmark/out/*.trace[01].json; do
        grep -oE "\"($1)\": \{\"value\": [^,]*" "$f" |
            sed "s|^\"\([^\"]*\)\": {\"value\": |$(basename "$f" .json) \1 |"
    done | LC_ALL=C sort
}
pin 'sim_[a-z0-9_]*' >results/benchmark_smoke_pin.txt
pin 'sim-core\.polls_per_op|host\.alloc[a-z_]*_per_op' >results/benchmark_smoke_counts.txt
for f in results/benchmark_smoke_pin.txt results/benchmark_smoke_counts.txt; do
    [ -s "$f" ] || { echo "empty $f" >&2; exit 1; }
done

echo "==> bench --bin all (regenerates what the diff below compares and no leg above writes: Figures 5-10, Table 1, the full ablations)"
cargo build --release -p bench --bins
cargo run --release -p bench --bin all >/dev/null

echo "==> results/ unchanged (simulated numbers are deterministic: a refactor that moves a figure, fingerprint, trace or benchmark schedule fails here)"
git diff --exit-code -- results/

echo "OK: all checks passed"
