#!/usr/bin/env bash
# Canonical fsml benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-light --seed 1 --seconds 30 --trace 0
#
# It builds fsml and the harness from this checkout into .bench_build/
# (Go caches included, so nothing is written outside the checkout), then
# runs one workload and prints one JSON result line last. See
# perfbench/README.md for workloads, metrics and the layer mapping.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/fsml ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the fsml repository root (need go.mod, cmd/fsml, perfbench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=

go build -o "$out/fsml" ./cmd/fsml
(cd perfbench && go build -o "$out/perfbench" .)

# The in-process layer probe imports fsml's internal packages, so a later
# refactor can break its build; the run then reports those per-layer
# metrics as absent instead of failing.
probe="$out/probe"
if ! (cd perfbench && go build -o "$probe" ./probe) >"$out/probe-build.log" 2>&1; then
	echo "perfbench: probe did not build (see .bench_build/probe-build.log); in-process layers will be absent" >&2
	probe=""
fi

exec "$out/perfbench" -root "$root" -fsml "$out/fsml" -probe "$probe" "$@"
