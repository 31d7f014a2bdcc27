#!/usr/bin/env bash
# Builds appclassbench (and, through it, cmd/appclassd) from this tree and
# runs it from the repository root with the given arguments, e.g.
#
#   bash bench/run.sh --workload fleet-bin --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -out results.json     # all four workloads
#
# Every build artefact, the Go build cache and all run state stay under
# .bench_build/ at the repository root. Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd bench && go build -o "$out/bin/appclassbench" ./cmd/appclassbench)
exec "$out/bin/appclassbench" "$@"
