#!/usr/bin/env bash
# Builds the rankd benchmark from this checkout's source and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload crawl-cold --seed 1 --seconds 15 --trace 0
#
# The Go build cache, the binary, the generated web and the span files
# all live under .bench_build/ at the checkout root; nothing is fetched.
# Outside a full checkout (no ../go.mod) the build fails and so does
# this script, before any result is printed.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
