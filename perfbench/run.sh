#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload cold|sweep --seed N --seconds S --trace 0|1
#
# Run from the root of the repository. Every build product, cache and
# temporary file stays under .bench_build/ in that directory.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -build-dir "$out" "$@"
