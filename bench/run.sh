#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it from this directory, so inputs, sidecars and traces land in
# bench/out/ and nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
cd "$here"
go build -o "$build/atgis-bench" .
exec "$build/atgis-bench" "$@"
