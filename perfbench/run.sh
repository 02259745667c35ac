#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The binary, the Go build cache and trace files stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
