#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload knn-fourier16 --seed 1 --seconds 20 --trace 0 \
#       --rate knn-fourier16=300
#
# Every build artefact (compiler cache, binary, per-run index files and span
# dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (the hybridtree sources are missing here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/perfbench"
	env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
		GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" -dir "$build/runs" "$@"
