#!/usr/bin/env bash
# Bootstrap of the repository benchmark: builds benchmark/ (a module of
# its own, so the root module's build and tests never see it) from the
# checkout's source and runs it from the repository root.
#
# Everything it writes stays inside the checkout: binaries, the Go build
# cache and the go command's own state (GOPATH, telemetry counters)
# under .bench_build/, records and traces under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$build/nfbench" . >&2
exec "$build/nfbench" "$@"
