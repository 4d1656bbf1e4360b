#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and
# runs it with the given arguments. Everything the go tool writes (build
# cache, module cache, telemetry) is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/estocada-bench" .)
cd "$root"
exec "$build/estocada-bench" "$@"
