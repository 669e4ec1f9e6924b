#!/usr/bin/env bash
# Builds the benchmark and the snicd daemon from source, then runs the
# benchmark with the arguments given. Run it from the repository root:
#
#   bash bench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# two binaries) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

go build -o "$out/bin/snicd" ./cmd/snicd
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -snicd .bench_build/bin/snicd -workdir .bench_build "$@"
