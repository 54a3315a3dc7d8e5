#!/usr/bin/env bash
# Builds shbfd and the benchmark from this checkout, then runs one
# workload of the benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload small-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: binaries, the Go build cache, Go's per-user config
# (telemetry is switched off there) and the traced runs' span files.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go telemetry off

(cd "$root" && go build -o "$out/shbfd" ./cmd/shbfd)
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)

cd "$root"
exec "$out/e2ebench" --daemon "$out/shbfd" --out "$out" "$@"
