#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload retimed_s3384 --seed 1 --seconds 16 --trace 0
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
