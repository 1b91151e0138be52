#!/usr/bin/env bash
# Builds the benchmark and cmd/xpserved from this checkout's sources into
# .bench_build/, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload explore-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/xpserved" xpscalar/cmd/xpserved) >&2
exec "$out/bin/perfbench" "$@"
