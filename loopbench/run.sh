#!/usr/bin/env bash
# Builds the loopbench binary from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#	bash loopbench/run.sh --workload read-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, per-run data directories and span files) goes under
# the build directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/loopbench/go.mod" ]]; then
	echo "loopbench: run from the repository root (go.mod and loopbench/go.mod are required)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/loopbench" build -o "$build/loopbench" .
exec "$build/loopbench" --workdir "$build" "$@"
