#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload fig12 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary go under
# .bench_build in the current directory, so nothing is written outside
# the checkout; the build uses only the checkout and the Go toolchain,
# never the network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
