#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload figure --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files, the binary and span files all stay
# under .bench_build/ in the current directory. Without the
# repository's sources next to perfbench/ the build fails and the
# script exits non-zero before printing anything on standard output.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
