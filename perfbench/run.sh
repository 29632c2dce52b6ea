#!/usr/bin/env bash
# Builds mocktailsd and the benchmark's load generator from this checkout, then
# runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload synth-mix --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
cd "$(dirname "$0")"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/mocktailsd" repro/cmd/mocktailsd
cd "$root"
exec "$out/bin/perfbench" -daemon "$out/bin/mocktailsd" -work "$out/runs" "$@"
