#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload family --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the go command's own state and the
# benchmark's scratch files all go under $CARGO_TARGET_DIR (default
# .bench_build) in the working directory, so a run reads and writes
# nothing outside it. The build needs no network: the benchmark module
# depends only on the repository's own module (replace repro => ../).
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$(pwd)/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$bench_dir" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build" "$@"
