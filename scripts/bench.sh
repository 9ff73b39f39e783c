#!/bin/sh
# bench.sh — run the tier-1 benchmark set and record BENCH_<n>.json.
#
# Usage: scripts/bench.sh <n>
#
# Emits BENCH_<n>.json at the repo root: a JSON array of
# {name, ns_per_op, bytes_per_op, allocs_per_op, metrics}, one entry per
# benchmark (including sub-benchmarks). The metrics object carries every custom
# ReportMetric column (dirty-ases, regional-p90-ms, …); fields are located
# by their unit tokens, not by position. Also emits BENCH_<n>_obs.json: the
# deterministic obs metrics snapshot of an instrumented small-world load
# run, so shape metrics (reconvergence sizes, fork counts) are archived
# next to the timings.
#
# The routing-core benchmarks run at the default benchtime; the whole-run
# steering benchmarks are seconds-per-op, so they run at -benchtime=1x to
# keep the script's wall clock bounded.
#
# Every benchmark runs -count 5 and the archive records the fastest of the
# five (minimum ns/op) — the standard noise-robust point estimate, since
# interference only ever adds time. The steering benchmarks need the extra
# draws most: at -benchtime=1x each count is a single ~10 s iteration, so
# the min converges slowly. Alloc counts are deterministic, so any of the
# five samples carries the same value.
set -eu

n="${1:?usage: scripts/bench.sh <n>}"
cd "$(dirname "$0")/.."
out="BENCH_${n}.json"
obs_out="BENCH_${n}_obs.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -benchmem -count 5 \
    -bench 'BenchmarkAnnounce$|BenchmarkAnnounceProvenance|BenchmarkIncrementalReconvergence|BenchmarkLookup$|BenchmarkEngineFork' \
    ./internal/bgp/ | tee -a "$raw"

go test -run '^$' -benchmem -benchtime 1x -count 5 \
    -bench 'BenchmarkTrafficSteering$|BenchmarkSteeringRound$|BenchmarkDemandMatrix$' \
    . | tee -a "$raw"

# One steering trial's load evaluation on the X3 crowd: a full EvaluateOn
# of the trial fork against the delta the steering loop computes.
go test -run '^$' -benchmem -count 5 \
    -bench 'BenchmarkTrialEvaluate$' \
    ./internal/traffic/ | tee -a "$raw"

# The paper's measurement campaign on the small world: keyed-draw and
# prefix-lookup cost per probe, with deterministic allocs/bytes.
go test -run '^$' -benchmem -count 5 \
    -bench 'BenchmarkRunCampaign$' \
    ./internal/core/ | tee -a "$raw"

# The resident server: full ingest path (reconverge + re-evaluate + publish)
# with the query-ns/op column reporting snapshot-read latency, the
# decoder-fronted stream path POST /events takes, and batch ingest of
# bodies whose events do not cancel.
go test -run '^$' -benchmem -count 5 \
    -bench 'BenchmarkServeIngestEvent$|BenchmarkServeIngestStream$|BenchmarkServeIngestBatch$' \
    ./internal/server/ | tee -a "$raw"

awk '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; extras = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")          { ns = $(i - 1); continue }
        if ($i == "B/op")           { bytes = $(i - 1); continue }
        if ($i == "allocs/op")      { allocs = $(i - 1); continue }
        if ($i == "MB/s") continue
        # Any other unit token preceded by a number is a ReportMetric column.
        if (i > 2 && $i !~ /^[0-9.+-]/ && $(i - 1) ~ /^[0-9.+-]/) {
            if (extras != "") extras = extras ", "
            extras = extras "\"" $i "\": " $(i - 1)
        }
    }
    if (ns == "") next
    if (bytes == "") bytes = "null"
    if (allocs == "") allocs = "null"
    # Keep the fastest of the -count samples per benchmark. Bytes and
    # allocs are deterministic, so the fastest sample carries them too.
    if (!(name in best)) order[++n] = name
    if (!(name in best) || ns + 0 < best[name] + 0) {
        best[name] = ns; by[name] = bytes; al[name] = allocs; ex[name] = extras
    }
}
END {
    printf "[\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"metrics\": {%s}}", \
            name, best[name], by[name], al[name], ex[name]
        printf (i < n) ? ",\n" : "\n"
    }
    printf "]\n"
}
' "$raw" > "$out"

echo "wrote $out"

go run ./cmd/anysim -small -metrics "$obs_out" load > /dev/null
echo "wrote $obs_out"
