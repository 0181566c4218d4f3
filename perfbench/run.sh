#!/usr/bin/env bash
# Builds the benchmark and the coolair-serve daemon from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload world-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact, cache and scratch
# file lands under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory; nothing outside the checkout is read or written besides the Go
# toolchain itself.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/work"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd perfbench && go build -o "$build/bin/perfbench" .)
case " $* " in
*fleet-serve*) go build -o "$build/bin/coolair-serve" ./cmd/coolair-serve ;;
esac

exec "$build/bin/perfbench" -serve-bin "$build/bin/coolair-serve" -work-dir "$build/work" "$@"
