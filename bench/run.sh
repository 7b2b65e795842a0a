#!/bin/sh
# Builds the benchmark and runs it with the given flags, e.g.
#
#   sh bench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, binaries and the Go tool's own
# configuration all live under bench/out, and no module is fetched, so a
# run reads and writes nothing outside the checkout apart from the Go
# toolchain itself. The first run fills that cache.
set -eu
dir=$(cd "$(dirname "$0")" && pwd)
out="$dir/out"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
cd "$dir"
go build -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
