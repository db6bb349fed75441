#!/usr/bin/env bash
# Builds stackbench from this checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash stackbench/run.sh --workload embedded --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary
# and the durable workload's temporary store.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/stackbench
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/stackbench" && go build -buildvcs=false -o "$out/stackbench" .) >&2
exec "$out/stackbench" --data "$out/data" "$@"
