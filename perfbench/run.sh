#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
# Address-space randomisation moves heap and stack layout from run to run,
# and with it serving latency by up to a quarter on the reference machine;
# runs without it when setarch can turn it off.
if setarch "$(uname -m)" -R true 2>/dev/null; then
	exec setarch "$(uname -m)" -R "$build/perfbench" "$@"
fi
exec "$build/perfbench" "$@"
