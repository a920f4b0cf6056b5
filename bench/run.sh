#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing
# every argument through:
#
#   bash bench/run.sh --workload rack-scale --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the module cache and the compiler's
# temporary files all live under .bench_build/ at the repository root, and
# no user or workspace Go configuration is read, so a run reads and writes
# nothing outside the checkout but the Go toolchain itself. The toolchain
# is the local one and module fetches are off: the benchmark needs only
# the standard library and this repository.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/rstorm-bench" .)
exec "$build/rstorm-bench" "$@"
