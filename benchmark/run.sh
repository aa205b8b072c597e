#!/bin/sh
# Builds the benchmark binary and runs it from the repository root:
#
#   sh benchmark/run.sh --workload mine-heavy --seed 1 --seconds 30 --trace 0
#   sh benchmark/run.sh -out a.json          # every workload, interleaved
#   sh benchmark/run.sh -compare a.json b.json
#
# Every build product, the Go build cache and the children's temporary
# directories stay under .bench_build/ in the current directory, so a run
# writes nothing outside the checkout it measures.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache"
GOPATH="$out/gopath"
GOTMPDIR="$out/tmp"
XDG_CONFIG_HOME="$out/config"
GOTOOLCHAIN=local
GOPROXY=off
GOFLAGS=
export GOCACHE GOPATH GOTMPDIR XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY GOFLAGS
go -C benchmark build -o "$out/prefix-benchmark" .
exec "$out/prefix-benchmark" "$@"
