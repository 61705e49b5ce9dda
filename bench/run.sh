#!/usr/bin/env bash
# run.sh builds flexbench from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload ingest-always --seed 1 --seconds 12 --trace 0
#
# Every build and run artefact (Go build cache, binaries, data
# directories, trace files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$out/flexbench" .)
exec "$out/flexbench" -root "$root" "$@"
