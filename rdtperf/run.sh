#!/usr/bin/env bash
# Builds rdtperf from this checkout's sources and runs it with the given
# arguments, from the checkout root. Build outputs, the Go build cache
# and every run's data directory stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/home" "$out/tmp"
out="$(cd "$out" && pwd)"
export CARGO_TARGET_DIR="$out"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/rdtperf" .)
exec "$out/rdtperf" "$@"
