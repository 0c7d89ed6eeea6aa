#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there. Everything the build and the run write
# stays inside the checkout: the Go build cache, module and telemetry
# directories, temporary files, the binary, the stores.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export TMPDIR="$build/tmp"

# The benchmark is its own module (benchmark/go.mod) that replaces `repro`
# with the checkout it sits in; without the repository around it there is
# nothing to measure and the build fails.
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
	export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$build/lineage-bench" .
)

cd "$root"
exec "$build/lineage-bench" "$@"
