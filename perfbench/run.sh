#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare BASE_DIR HEAD_DIR
#
# Run from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR if set, else
# .bench_build): the Go build cache, temporary files, the binary and
# trace files. The module in perfbench/ replaces the awam module with the
# directory above it, so the build fails (and nothing is measured) when
# the repository's sources are not there.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/traces" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPATH="$build/gopath" GOPROXY=off GOSUMDB=off
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --trace-dir "$build/traces" "$@"
