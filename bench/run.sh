#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout: bash bench/run.sh -workload <name> -seed <n> -seconds <s> -trace <0|1>
#
# Everything the build leaves behind stays inside the checkout, under
# .bench_build/: the Go build cache as well as the binary.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi

root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local

go build -o "$root/.bench_build/harmony-bench" ./bench
exec "$root/.bench_build/harmony-bench" "$@"
