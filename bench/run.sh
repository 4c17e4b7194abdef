#!/bin/sh
# Builds bench/tlrbench into .bench_build/ at the root of the checkout and
# runs it with the arguments given:
#
#   bench/run.sh --workload factor-rank --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (binary, compiler cache, module path, go's own
# configuration directory) stays under .bench_build/, which is git-ignored.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local \
	go build -o "$build/tlrbench" ./bench/tlrbench
exec "$build/tlrbench" "$@"
