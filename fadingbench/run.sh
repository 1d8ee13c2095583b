#!/usr/bin/env bash
# Builds the fadingd benchmark from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash fadingbench/run.sh --workload stream-n16-bin --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) stays
# under .bench_build/ in the working directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/fadingbench" .) >&2
exec "$out/fadingbench" "$@"
