#!/bin/sh
# bench_diff.sh — gate on benchmark regressions between recorded baselines.
#
# Usage: scripts/bench_diff.sh [time_threshold_pct] [mem_threshold_pct]
#
# Compares the two most recent BENCH_<n>.json archives at the repo root
# (highest two <n>) on the headline benchmarks — BenchmarkAnnounce (the
# routing core), BenchmarkTrafficSteering (the whole-pipeline number) and
# BenchmarkRunCampaign (the paper's measurement campaign) — and, on the
# memory columns only, BenchmarkSteeringRound (one round of the X3
# steering loop), the incremental write path
# BenchmarkIncrementalReconvergence/incremental (a site flap),
# .../provenance (the same with recording on) and .../full (the same flap
# as two full announcements), BenchmarkEngineFork/fork-trial
# (one steering trial: a fork plus a prepended re-announcement on it),
# BenchmarkTrialApply/prepend and .../wave (a steering trial's fork and
# action on the default world: one prepend, and a prepend wave applied as
# one batch), BenchmarkTrialEvaluate/full (a full default-world
# EvaluateOn of a trial fork) and .../delta (a trial's delta load
# evaluation), BenchmarkServeIngestEvent (the resident server's
# per-event ingest), BenchmarkServeIngestBatch (its batch ingest of 16
# link faults), BenchmarkServeAdvance (one publish with no routing change:
# a clock advance into the next demand bucket),
# BenchmarkServeOpsStep (one operator step: POST an event, GET /diff, GET
# /explain), BenchmarkAnalyzeCampaign (a campaign's grouping and
# Table 2 analysis) and BenchmarkCapture/full and .../delta (a full
# catchment capture, and a delta capture after one link fault).
#
# Two gates with different teeth, because the columns have different
# noise floors:
#
#   - allocs_per_op and bytes_per_op are deterministic outputs of the
#     code (the allocator doesn't care who else is on the machine), so
#     they carry the tight gate: mem_threshold_pct (default 10) growth
#     fails. Archives recorded before a column existed skip that
#     column's gate for that pair.
#   - ns_per_op is wall time on whatever hardware recorded the archive.
#     On shared/virtualized machines the same binary has been measured
#     2x apart within one session, so a tight time gate blocks no-op
#     changes. Time gets a coarse gate: time_threshold_pct (default 25)
#     catches order-of-magnitude regressions; anything subtler must show
#     up in the deterministic columns or in a same-session A/B run.
#
# Run scripts/bench.sh <n> on a quiet machine to record a new archive
# before invoking this.
#
# With fewer than two archives there is nothing to compare; that is a
# success, so fresh checkouts and CI on new branches pass.
#
# A threshold that is not a non-negative number (say, an archive name
# passed by mistake) is a usage error, exit 2: it would otherwise turn
# every gate off.
set -eu

time_threshold="${1:-25}"
mem_threshold="${2:-10}"
for thr in "$time_threshold" "$mem_threshold"; do
    if ! printf '%s\n' "$thr" | grep -Eq '^([0-9]+\.?[0-9]*|\.[0-9]+)$'; then
        echo "usage: scripts/bench_diff.sh [time_threshold_pct] [mem_threshold_pct]" >&2
        echo "bench_diff: threshold \"$thr\" is not a non-negative number" >&2
        exit 2
    fi
done
cd "$(dirname "$0")/.."

archives=$(ls BENCH_*.json 2>/dev/null | grep -E '^BENCH_[0-9]+\.json$' | sort -t_ -k2 -n || true)
count=$(printf '%s\n' "$archives" | grep -c . || true)
if [ "$count" -lt 2 ]; then
    echo "bench_diff: $count archive(s) found, need 2; nothing to compare"
    exit 0
fi
old=$(printf '%s\n' "$archives" | tail -2 | head -1)
new=$(printf '%s\n' "$archives" | tail -1)
echo "bench_diff: $old -> $new (time ${time_threshold}%, memory ${mem_threshold}%)"

# One numeric column of one benchmark in one archive (bench.sh writes one
# entry per line, so a line-oriented extraction is reliable). Empty when
# the archive predates the column or recorded null. The name is escaped
# for the sed pattern, so sub-benchmark names (which contain '/') work.
col_of() {
    name=$(printf '%s' "$2" | sed 's/[][\/.*^$]/\\&/g')
    sed -n 's/.*"name": "'"$name"'".*"'"$3"'": \([0-9][0-9.e+-]*\)[,}].*/\1/p' "$1" | head -1
}

fail=0

# gate <bench> <column> <unit> <threshold>: compare one column across the
# two archives; report, and fail when growth exceeds the threshold.
gate() {
    bench="$1"; column="$2"; unit="$3"; thr="$4"
    o=$(col_of "$old" "$bench" "$column")
    n=$(col_of "$new" "$bench" "$column")
    if [ -z "$o" ] || [ -z "$n" ]; then
        echo "  $bench: $column not in both archives; skipping"
        return 0
    fi
    awk -v o="$o" -v n="$n" -v t="$thr" -v b="$bench" -v u="$unit" '
        BEGIN {
            pct = (o == 0) ? (n > 0 ? 100 : 0) : 100 * (n - o) / o
            printf "  %-24s %14.0f -> %14.0f %-9s (%+.1f%%, gate %s%%)\n", b, o, n, u, pct, t
            exit (pct > t) ? 1 : 0
        }' || fail=1
}

# missing <bench>: true (and says so) when neither archive has the benchmark.
missing() {
    if [ -z "$(col_of "$old" "$1" ns_per_op)" ] && [ -z "$(col_of "$new" "$1" ns_per_op)" ]; then
        echo "  $1: missing from both archives; skipping"
        return 0
    fi
    return 1
}

for bench in BenchmarkAnnounce BenchmarkTrafficSteering BenchmarkRunCampaign; do
    missing "$bench" && continue
    gate "$bench" ns_per_op     "ns/op"     "$time_threshold"
    gate "$bench" bytes_per_op  "B/op"      "$mem_threshold"
    gate "$bench" allocs_per_op "allocs/op" "$mem_threshold"
done

for bench in BenchmarkSteeringRound BenchmarkIncrementalReconvergence/incremental BenchmarkIncrementalReconvergence/provenance BenchmarkIncrementalReconvergence/full BenchmarkEngineFork/fork-trial BenchmarkTrialApply/prepend BenchmarkTrialApply/wave BenchmarkTrialEvaluate/full BenchmarkTrialEvaluate/delta BenchmarkServeIngestEvent BenchmarkServeIngestBatch BenchmarkServeAdvance BenchmarkServeOpsStep BenchmarkAnalyzeCampaign BenchmarkCapture/full BenchmarkCapture/delta; do
    missing "$bench" && continue
    gate "$bench" bytes_per_op  "B/op"      "$mem_threshold"
    gate "$bench" allocs_per_op "allocs/op" "$mem_threshold"
done

if [ "$fail" -ne 0 ]; then
    echo "bench_diff: regression beyond threshold — investigate before landing"
    exit 1
fi
echo "bench_diff: ok"
