#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from the checkout's own
# source and runs it with the arguments given, keeping everything the Go
# toolchain writes (build cache, temp files, telemetry) inside the checkout
# under .bench_build/. `go run ./benchmark` from the repository root does the
# same with the toolchain's default cache locations.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/mendel ]]; then
  echo "benchmark: no Mendel module in $root: nothing to build or measure" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# With telemetry in its default "local" mode the go command starts a detached
# child of itself about once a day per config directory, which outlives the
# build; switched off, every go command below (and the harness's own builds
# of cmd/mendel, which inherit this environment) leaves no process behind.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/mendel-benchmark" ./benchmark
exec "$build/mendel-benchmark" "$@"
