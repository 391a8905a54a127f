#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run from and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper15 --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, telemetry,
# temporary files) and the benchmark binary land under .bench_build in the
# current directory, so nothing outside the checkout is touched.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${root}/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
