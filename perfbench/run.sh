#!/usr/bin/env bash
# Builds the benchmark from the module source and runs it with the given
# arguments. Run it from the module root, for example:
#
#   bash perfbench/run.sh --workload fabric --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 30
#
# The binary, the Go build cache and the traced runs' span files stay in
# .bench_build/ under the module root, so nothing is written outside it.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d perfbench ]]; then
	echo "perfbench: run from the module root (go.mod, internal/ or perfbench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
