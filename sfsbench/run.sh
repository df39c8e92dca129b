#!/usr/bin/env bash
# Builds the benchmark and sfs-serve from this checkout's source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash sfsbench/run.sh --workload seq-cold --seed 1 --seconds 12 --trace 0
#
# Build products, the Go build cache and every temporary file stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sfs-serve" ]; then
	echo "sfsbench: run from the repository root (no checker source here)" >&2
	exit 2
fi
build="$root/.bench_build/sfsbench"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/sfsbench" && go build -o "$build/bin/" . repro/cmd/sfs-serve) >&2
exec "$build/bin/sfsbench" "$@"
