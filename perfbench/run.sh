#!/usr/bin/env bash
# Builds the benchmark and the agilepmd daemon from this checkout, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload drain-burst --seed 1 --seconds 10 --trace 0
#
# Everything a run writes (build cache, binaries, spans) stays under
# .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/agilepmd ]; then
  echo "perfbench: run from the root of an agilepower checkout" >&2
  exit 1
fi

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$out/agilepmd" ./cmd/agilepmd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
