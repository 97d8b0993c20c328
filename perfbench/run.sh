#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#
#   bash perfbench/run.sh --workload sweep_fixed --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. The Go build cache, the binary and the
# job stores the workloads write all live under .bench_build/ there;
# nothing is written outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -state "$out/state" "$@"
