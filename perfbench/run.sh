#!/usr/bin/env bash
# Builds the AdOC benchmark from the checkout it sits in and runs it.
# Every argument is passed to the benchmark binary. Build products, the Go
# build cache and span dumps stay under .bench_build at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
