#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload twin-ops --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# traces) goes under $CARGO_TARGET_DIR, default .bench_build at the
# repository root. Build output goes to stderr, so the last line of stdout
# is the benchmark's JSON result. The build fails, and so does this script,
# when the bench directory is not inside an anysim checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
# The go command's telemetry counters live under the user config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/anysim-bench" .) >&2
cd "$root"
exec "$out/anysim-bench" -out "$out" "$@"
