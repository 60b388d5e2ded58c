#!/usr/bin/env bash
# Entry point recorded in BENCHMARK.json: builds the benchmark from source
# into <checkout>/.bench_build and runs it there, so nothing is read or
# written outside the checkout (Go build cache and temp files included).
# Arguments are passed through; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOWORK=off
# XDG_CONFIG_HOME keeps the go command's own telemetry counters in there too.
XDG_CONFIG_HOME="$build/config" go build -C "$here" -buildvcs=false -o "$build/deepcat-bench" .
exec "$build/deepcat-bench" -out "$build/out" "$@"
