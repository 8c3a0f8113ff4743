#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind — the binary and Go's build cache —
# stays under .bench_build/ at the root, so a run writes nowhere else.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off

# bench/go.mod replaces the program's module with "../": in a directory
# that holds only the benchmark this build fails, and no result is printed.
go build -C "$here" -o "$build/bench" .

cd "$root"
exec "$build/bench" "$@"
