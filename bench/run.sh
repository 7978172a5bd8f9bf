#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload web_load --seed 7 --seconds 16 --trace 0
#   bash bench/run.sh            # every workload, then the traced runs
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the working directory.
set -euo pipefail

root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# The go command's own state (build cache, module cache, telemetry
# counters under the user config directory) is redirected as well; the
# build needs no network and no toolchain download.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$here" -o "$build/bench" .
exec "$build/bench" -dir "$here" "$@"
