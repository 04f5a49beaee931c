#!/usr/bin/env bash
# Builds the end-to-end kavserve benchmark from the checkout it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload uniform-text-k --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) and every file the
# benchmark writes lands under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory, so a run touches nothing outside the checkout. The build
# is offline: the module has no dependencies beyond the repository itself.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
