#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the root of a pitex checkout:
#
#   bash e2ebench/run.sh --workload serve-uniform --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOFLAGS=-mod=mod \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off XDG_CONFIG_HOME=$out/config
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
