#!/usr/bin/env bash
# Builds the load generator and the unchanged ebmfd/ebmfgw daemons from the
# checkout it is started in, then runs the benchmark with the given flags:
#
#   bash loadbench/run.sh --workload warm_hits --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, temp stores, spans) stays
# under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/xdg"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C loadbench -o "$out/bin/loadbench" .
go build -o "$out/bin/" ./cmd/ebmfd ./cmd/ebmfgw
exec "$out/bin/loadbench" -bin "$out/bin" -work "$out/run" "$@"
