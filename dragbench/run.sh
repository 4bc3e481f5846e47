#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash dragbench/run.sh --workload serve-fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run leave
# behind stays inside the checkout: the Go build cache and the binary under
# .bench_build/, stores and traces under .bench_out/.
set -euo pipefail
root=$(pwd)
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C dragbench build -o "$root/.bench_build/dragbench" .
exec "$root/.bench_build/dragbench" "$@"
