#!/usr/bin/env bash
# Builds the benchmark and cmd/nocd from this checkout, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [-cpuprofile f] [-exectrace f]
#   bash perfbench/run.sh compare <base-results-dir> <new-results-dir>
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the two binaries and
# the results files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/nocd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/nocd and perfbench/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
go build -C perfbench -o "$build/bin/perfbench" .
go build -o "$build/bin/nocd" ./cmd/nocd
exec "$build/bin/perfbench" "$@"
