#!/usr/bin/env bash
# Builds the benchmark binary inside the checkout and replaces this shell with
# it. Everything the build writes (binary, Go build cache, temporary files, Go's
# own configuration directory) lands under .bench_build/ in the checkout.
# Usage, from the repository root:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/rafiki-benchmark" .
cd "$root"
exec "$build/rafiki-benchmark" "$@"
