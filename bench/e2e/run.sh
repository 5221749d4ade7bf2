#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# checkout's root, passing every argument through:
#
#   bash bench/e2e/run.sh --workload lookup_mem --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write — Go's build cache and temp
# files, the binary, data directories, trace files — stays under
# .bench_build/ in the checkout. The first build compiles the standard
# library into that cache; later ones reuse it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/e2e" .)
cd "$root"
exec "$build/e2e" "$@"
