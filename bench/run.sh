#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash bench/run.sh --workload tls4k-fleet4 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# toolchain's user config (telemetry counters) all live in .bench_build/
# at the repository root, so the benchmark writes nothing outside the
# checkout. bench/go.mod takes the simulator from the parent directory;
# without it the build fails and the script exits non-zero before
# anything runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
  GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
