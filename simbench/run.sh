#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the
# repository root:
#
#   bash simbench/run.sh --workload tpcc-scale --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, spans) stays in
# .bench_build/ under the current directory, and the build never touches
# the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/simbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
unset GOROOT_FINAL GOENV 2>/dev/null || true

(cd "$root/simbench" && go build -o "$out/simbench" .)
exec "$out/simbench" --spans-dir "$out" "$@"
