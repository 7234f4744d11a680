#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout:
#
#   bash bench/run.sh --workload rewrite_hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, span
# files, temporary cache directories) stays under .bench_build in the
# checkout. The build needs the qav module one directory above bench/;
# without it the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd bench && go build -o "$out/qavbench-e2e" .) >&2
exec "$out/qavbench-e2e" "$@"
