#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the toolchain writes (build
# cache, temp files) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
