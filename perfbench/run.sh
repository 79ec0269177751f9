#!/usr/bin/env bash
# Builds the benchmark (and with it the engine) from this checkout's source
# and runs it:
#
#   bash perfbench/run.sh --workload paper-prepared --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product, cache and span file
# goes under .bench_build/ in the current directory; the toolchain is kept
# offline and local (no module downloads, no toolchain switch).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
