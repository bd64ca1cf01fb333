#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, from the checkout's root. Everything the build writes —
# the binary, Go's build cache and its scratch files — stays under .bench_build
# in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/minraid-benchmark" .)
cd "$root"
exec "$build/minraid-benchmark" "$@"
