#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it;
# every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload generate --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build
# under the checkout root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
