#!/usr/bin/env bash
# Entry point of the end-to-end benchmark (BENCHMARK.json's command): build
# bench/e2e from source into .bench_build/ under the repository root, then
# run it with the arguments given. Everything the Go toolchain writes —
# build cache, module cache, temporary files, telemetry — is kept inside
# .bench_build/, so a run touches nothing outside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0

(cd "$here" && go build -o "$build/e2e" ./e2e)
exec "$build/e2e" -root "$root" "$@"
