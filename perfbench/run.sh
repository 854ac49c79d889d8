#!/usr/bin/env bash
# Builds the benchmark and the pmafiad daemon from the sources of the
# checkout it is run from, then runs the benchmark with the arguments
# given. Run it from the repository root:
#
#	bash perfbench/run.sh --workload fit_scan --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build in the root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/pmafiad ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a pmafia checkout (go.mod and cmd/pmafiad not found)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go build -o "$out/pmafiad" ./cmd/pmafiad
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/pmafiad" -workdir "$out/work" "$@"
