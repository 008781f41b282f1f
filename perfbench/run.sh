#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload get_uniform --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 10 --seconds 10      # steadiness mode
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build/ (or $CARGO_TARGET_DIR), so a run
# reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (needs go.mod, internal/, perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

# Keep the toolchain's caches, temporary files and telemetry counters in
# the checkout, and never reach for a network module proxy.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --workdir "$out" "$@"
