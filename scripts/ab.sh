#!/usr/bin/env bash
# A/B the benchmark: a base revision against this checkout's working
# tree, both driven through their own unchanged `benchmark/run.sh`.
#
#   scripts/ab.sh <rev> [--pairs N] [--workload W] [--seconds S] [--seed K]
#   scripts/ab.sh <rev> --results
#
# <rev> is exported with `git archive` into $AB_DIR/<sha> (default
# ${TMPDIR:-/tmp}/nfs-rdma-ab) and built there once; later calls reuse
# the build. Nothing tracked in the checkout is written.
#
# (a) Same schedule: every workload untraced and traced at seeds 1 and
#     2 on both sides (only an untraced run reports the `sim_*` keys,
#     only a traced one the per-layer keys); prints each last-line
#     JSON key that differs, or `0 moved`.
#     Skipped as wall clock: `host*`, `ladder.*`, `setup_s`, and
#     `attempted` (the repetitions that fit in S seconds, times the ops
#     in one; every repetition of a seed is the same schedule).
# (b) Wall clock: N interleaved untraced pairs per workload (default
#     10) at seed K (default 1), alternating which side runs first.
#     Prints every pair, then for each BENCHMARK.json end-to-end
#     metric each side's median and quartiles (Q1..Q3), the base's IQR
#     as a share of its median, the change's wins out of N (ties count
#     for neither side), the median pair ratio (change / base) and a
#     verdict: `better` when the change wins at least nine
#     tenths of the pairs and its median is better than the base's by
#     more than the base's IQR; otherwise `unresolved` when the base's
#     IQR exceeds the metric's bound, `worse` when the change's median
#     is worse by more than the bound, else `no change`.
#
# --workload W restricts both parts to one workload; --seconds S
# (default 25) is each run's length. Run nothing else meanwhile: the
# host metrics are wall clock.
#
# (c) --results, instead of (a) and (b): the recorded artifacts. The
#     working tree (tracked and untracked files that are not ignored)
#     is copied into $AB_DIR/worktree, whose builds are kept between
#     calls. On each side, in its own copy, run `bench all`, every
#     `bench` leg its own scripts/check.sh runs (the --smoke gates and
#     fig5-anatomy) and the benchmark smoke, and write the two
#     benchmark pin files the way check.sh does; then `diff -r` the two
#     results/ directories. Prints a leg that exits non-zero, each
#     differing file, and `results: N differ`. The checkout's results/
#     is never written. About 6 minutes for both sides on 2 cores.
set -euo pipefail

cd "$(dirname "$0")/.."
here=$(pwd)

usage() {
    echo "usage: scripts/ab.sh <rev> [--pairs N] [--workload W] [--seconds S] [--seed K]" >&2
    echo "       scripts/ab.sh <rev> --results" >&2
    exit 2
}

[[ $# -ge 1 && $1 != --* ]] || usage
rev=$1
shift
pairs=10
seconds=25
pair_seed=1
workloads="seq_read seq_write meta_mix raid_read"
results=0
while [[ $# -gt 0 ]]; do
    if [[ $1 == --results ]]; then
        results=1
        shift
        continue
    fi
    [[ $# -ge 2 ]] || usage
    case $1 in
    --pairs) pairs=$2 ;;
    --workload) workloads=$2 ;;
    --seconds) seconds=$2 ;;
    --seed) pair_seed=$2 ;;
    *) usage ;;
    esac
    shift 2
done

sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
    echo "ab.sh: unknown revision $rev" >&2
    exit 2
}
ab_dir="${AB_DIR:-${TMPDIR:-/tmp}/nfs-rdma-ab}"
base="$ab_dir/$sha"
if [[ ! -f $base/benchmark/run.sh ]]; then
    mkdir -p "$base"
    git archive "$sha" | tar -x -C "$base"
fi
# Each side builds into its own target/ and benchmark/target.
unset CARGO_TARGET_DIR

# results_side DIR: regenerate DIR's results/ from DIR's sources.
results_side() {
    (
        cd "$1" || exit 1
        # A failing leg is reported, and the rest still run.
        set +e +o pipefail
        sed -n 's/^cargo run --release -p bench -- \([^>]*\).*/\1/p' scripts/check.sh |
            while read -r leg; do
                # shellcheck disable=SC2086 # a leg is a name and its flags
                cargo run --release -q -p bench -- $leg </dev/null >/dev/null 2>&1 ||
                    echo "  $1: bench $leg exited non-zero"
            done
        bash benchmark/run.sh --smoke </dev/null >/dev/null 2>&1 ||
            echo "  $1: benchmark/run.sh --smoke exited non-zero"
        # The pin files, as scripts/check.sh writes them.
        pin() {
            for f in benchmark/out/*.trace[01].json; do
                grep -oE "\"($1)\": \{\"value\": [^,]*" "$f" |
                    sed "s|^\"\([^\"]*\)\": {\"value\": |$(basename "$f" .json) \1 |"
            done | LC_ALL=C sort
        }
        pin 'sim_[a-z0-9_]*' >results/benchmark_smoke_pin.txt
        pin 'sim-core\.polls_per_op|host\.alloc[a-z_]*_per_op' >results/benchmark_smoke_counts.txt
    )
}

if ((results)); then
    tree="$ab_dir/worktree"
    echo "==> (c) copying the working tree to $tree"
    mkdir -p "$tree/benchmark"
    # Everything but the two build directories goes, so a file deleted
    # from the checkout is gone from the copy too.
    find "$tree" -mindepth 1 -maxdepth 1 ! -name target ! -name benchmark -exec rm -rf {} +
    find "$tree/benchmark" -mindepth 1 -maxdepth 1 ! -name target -exec rm -rf {} +
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do [[ -e $f ]] && printf '%s\0' "$f"; done |
        tar --null -T - -cf - | tar -xf - -C "$tree"
    for side in "$base" "$tree"; do
        echo "==> (c) regenerating results/ in $side"
        results_side "$side"
    done
    echo "==> (c) results/ that differ ($rev -> working tree)"
    differ=$(diff -rq "$base/results" "$tree/results" |
        sed -e "s|^Files $base/results/\([^ ]*\) and .* differ\$|\1|" \
            -e "s|^Only in $base/results: |only in $rev: |" \
            -e "s|^Only in $tree/results: |only in the working tree: |") || true
    [[ -z $differ ]] || sed 's/^/  /' <<<"$differ"
    echo "results: $(grep -c . <<<"$differ" || true) differ"
    exit 0
fi

# run SIDE WORKLOAD SEED TRACE: the run's last-line JSON.
run() {
    (cd "$1" && bash benchmark/run.sh --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace "$4" 2>/dev/null | tail -n 1)
}

# One `key value` line per top-level scalar and per metric of a run's
# JSON.
flat_json() {
    {
        grep -o '"\(correct\|attempted\|failed\)": [^,}]*' <<<"$1" || true
        grep -o '"[^"]*": {"value": [^,}]*' <<<"$1" || true
    } | sed 's/"\([^"]*\)": \({"value": \)\{0,1\}/\1 /'
}

# key VALUE from a flattened run.
value() {
    awk -v k="$2" '$1 == k { print $2 }' <<<"$1"
}

echo "==> building $rev ($sha) and the working tree"
run "$base" seq_read 1 0 >/dev/null
run "$here" seq_read 1 0 >/dev/null

echo "==> (a) untraced and traced, seeds 1 and 2: keys that moved ($rev -> working tree)"
moved=0
for w in $workloads; do
    for seed in 1 2; do
        for trace in 0 1; do
            a=$(flat_json "$(run "$base" "$w" "$seed" "$trace")")
            b=$(flat_json "$(run "$here" "$w" "$seed" "$trace")")
            [[ -n $a && -n $b ]] || {
                echo "ab.sh: $w seed $seed trace $trace produced no JSON" >&2
                exit 1
            }
            diffs=$(join -a 1 -a 2 -e missing -o 0,1.2,2.2 \
                <(sort <<<"$a") <(sort <<<"$b") |
                awk '$1 !~ /^(host|ladder\.|setup_s$|attempted$)/ && $2 != $3')
            if [[ -n $diffs ]]; then
                awk -v w="$w" -v s="$seed" -v t="$trace" \
                    '{ printf "  %s seed %s trace %s  %s: %s -> %s\n", w, s, t, $1, $2, $3 }' <<<"$diffs"
                moved=$((moved + $(wc -l <<<"$diffs")))
            fi
        done
    done
done
echo "$moved moved"

# End-to-end metrics with their direction and bound, from BENCHMARK.json.
bounds=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }
' BENCHMARK.json)

# stats: reads `base change` per line; prints `median_base
# median_change iqr_base wins median_ratio q1_base q3_base q1_change
# q3_change` where a win is the change being better than the base of
# its own pair.
stats() {
    awk -v better="$1" '
        function q(v, n, p,    h, i) {
            h = (n - 1) * p; i = int(h)
            return i + 1 < n ? v[i] + (h - i) * (v[i + 1] - v[i]) : v[i]
        }
        function sorted(v, n,    i, j, t) {
            for (i = 1; i < n; i++)
                for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        }
        BEGIN { n = 0 }
        {
            a[n] = $1; b[n] = $2; r[n] = $1 == 0 ? 1 : $2 / $1
            wins += (better == "higher") ? ($2 > $1) : ($2 < $1)
            n++
        }
        END {
            sorted(a, n); sorted(b, n); sorted(r, n)
            printf "%.6g %.6g %.6g %d %.4f %.6g %.6g %.6g %.6g\n", q(a, n, .5), q(b, n, .5),
                q(a, n, .75) - q(a, n, .25), wins, q(r, n, .5),
                q(a, n, .25), q(a, n, .75), q(b, n, .25), q(b, n, .75)
        }'
}

echo "==> (b) $pairs interleaved untraced pairs per workload, seed $pair_seed, ${seconds} s a run ($rev vs working tree)"
worse=0
for w in $workloads; do
    echo "-- $w"
    table=""
    for i in $(seq 1 "$pairs"); do
        if ((i % 2)); then
            a=$(flat_json "$(run "$base" "$w" "$pair_seed" 0)")
            b=$(flat_json "$(run "$here" "$w" "$pair_seed" 0)")
            first=base
        else
            b=$(flat_json "$(run "$here" "$w" "$pair_seed" 0)")
            a=$(flat_json "$(run "$base" "$w" "$pair_seed" 0)")
            first=change
        fi
        line="pair $i ($first first):"
        while read -r name _ _; do
            line+=" $name $(value "$a" "$name")/$(value "$b" "$name")"
            table+="$name $(value "$a" "$name") $(value "$b" "$name")"$'\n'
        done <<<"$bounds"
        echo "  $line  failed $(value "$a" failed)/$(value "$b" failed)"
    done
    printf '  %-18s %14s %23s %14s %23s %9s %6s %7s  %s\n' metric "base median" "base Q1..Q3" \
        "change median" "change Q1..Q3" "base IQR" wins ratio verdict
    while read -r name better bound; do
        read -r ma mb iqr wins ratio q1a q3a q1b q3b < <(awk -v k="$name" '$1 == k { print $2, $3 }' <<<"$table" | stats "$better")
        verdict=$(awk -v ma="$ma" -v mb="$mb" -v iqr="$iqr" -v bound="$bound" -v better="$better" \
            -v wins="$wins" -v pairs="$pairs" 'BEGIN {
            gain = better == "higher" ? mb - ma : ma - mb
            loss = ma == 0 ? 0 : -gain / ma
            if (10 * wins >= 9 * pairs && gain > iqr) print "better"
            else if (ma != 0 && iqr / ma > bound) print "unresolved"
            else if (loss > bound) print "worse"
            else print "no change"
        }')
        [[ $verdict == worse ]] && worse=$((worse + 1))
        printf '  %-18s %14s %23s %14s %23s %8.1f%% %3d/%-2d %7s  %s\n' "$name" "$ma" "$q1a..$q3a" \
            "$mb" "$q1b..$q3b" \
            "$(awk -v i="$iqr" -v m="$ma" 'BEGIN { print m == 0 ? 0 : 100 * i / m }')" \
            "$wins" "$pairs" "$ratio" "$verdict"
    done <<<"$bounds"
done
echo "$worse worse"
