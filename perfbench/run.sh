#!/usr/bin/env bash
# Builds the benchmark and moed from this checkout's sources, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-steady --seed 1 --seconds 25 --trace 0
#
# Everything it writes (the Go build cache, binaries, scratch lineages and
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOENV=off
export GOTELEMETRY=off

# A tree without the module's sources cannot build moed: fail without a
# result line.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/moed" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/moed not found)" >&2
	exit 2
fi

mkdir -p "$build/bin"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/moed" moe/cmd/moed) >&2

exec "$build/bin/perfbench" -moed "$build/bin/moed" -work "$build/run" "$@"
