#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload wide_codec --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (binary, Go build cache, the --trace 1 span file) stays under
# .bench_build/ in the root, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-out "$out/perfbench-trace.json" "$@"
