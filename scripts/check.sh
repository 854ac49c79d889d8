#!/bin/sh
# Extended tier-1 gate: vet, formatting, and the full test suite under
# the race detector. With -smoke it additionally runs the fuzz smoke,
# the benchmark smoke, and the bench-regression gate against the
# committed BENCH_pr8.json baseline (generous tolerance: the committed
# numbers come from a quiet machine, CI runners are not). Run from the
# repository root (or via `make check`, which passes -smoke).
set -eu

cd "$(dirname "$0")/.."

smoke=0
for arg in "$@"; do
    case "$arg" in
        -smoke) smoke=1 ;;
        *) echo "usage: check.sh [-smoke]" >&2; exit 2 ;;
    esac
done

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Static analysis beyond vet. Pinned so CI and laptops agree on the
# check set; if the binary is absent we try a module-proxy install and
# skip with a notice when that fails (offline container) rather than
# turning an environment gap into a red gate.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2025.1.1}"
echo "== staticcheck ./... (pinned $STATICCHECK_VERSION)"
staticcheck_bin=""
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck_bin=staticcheck
elif [ -x "$(go env GOPATH)/bin/staticcheck" ]; then
    staticcheck_bin="$(go env GOPATH)/bin/staticcheck"
elif go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" >/dev/null 2>&1; then
    staticcheck_bin="$(go env GOPATH)/bin/staticcheck"
fi
if [ -n "$staticcheck_bin" ]; then
    "$staticcheck_bin" ./...
else
    echo "staticcheck: not installed and module proxy unreachable — skipped" >&2
fi

# Metric-name hygiene: every trace.*/profile.* (and every other)
# counter the daemon emits must belong to the closed obs registry with
# a locked Prometheus mapping, and no metric-name string literal may
# bypass the registry constants.
echo "== metric-name registry gate"
go test -count=1 -run 'TestCounterRegistry|TestHistogramRegistry|TestPromNameMapping' ./internal/obs
go test -count=1 -run 'TestAllEmittedMetricsAreRegistered' ./internal/daemon
stray=$(grep -rnE '"(trace|profile|swap|ingest)\.[a-z_.]+"' --include='*.go' internal cmd \
    | grep -v '^internal/obs/names\.go:' | grep -vE '\.(pmaf|pmfm)"' || true)
if [ -n "$stray" ]; then
    echo "metric-name literals outside internal/obs/names.go (use the obs.Ctr*/Hist* constants):" >&2
    echo "$stray" >&2
    exit 1
fi

echo "== go test -race ./..."
go test -race ./...

# The serving path has its own named gates: the daemon must survive
# concurrent assignment + scraping with a leak-free shutdown, and the
# compiled assignment index must agree bit-for-bit with the engine's
# linear-scan oracle.
echo "== serving gate (daemon concurrency/leak + assign differential)"
go test -race -count=1 -run 'TestConcurrentAssignAndScrape' ./internal/daemon
go test -race -count=1 -run 'TestPropertyMatchesOracle|TestFittedModelMatchesEngineAssign' ./internal/assign

# The fit path's population kernels (bit-sliced direct, grouped bitset,
# grouped map) must agree count for count with the scalar per-record
# oracle on edge-case records, partial blocks, and sharded workers.
echo "== population-kernel differential gate (kernels vs scalar oracle)"
go test -race -count=1 -run 'TestCountKernelsAgree' ./internal/mafia

# Load smoke: a sub-second burst of sustained /assign traffic against
# an in-process daemon, checking QPS, error-free serving, and that the
# server's histogram percentiles agree with the client's measurement.
echo "== load smoke (sustained /assign traffic, server vs client percentiles)"
go test -race -count=1 -run 'TestLoadSmoke' ./internal/bench

# Swap-under-load gate: while sustained traffic runs, the served model
# file is rewritten with alternating generations (and once with
# garbage) — every response must match exactly one generation's
# oracle, never a torn mix, and a failed swap must keep the previous
# generation serving. The coalescer drain check pins that Shutdown
# flushes parked waiters instead of abandoning them.
echo "== swap gate (hot swap under load + coalescer drain)"
go test -race -count=1 -run 'TestStaleModelReloaded|TestSwapUnderLoad|TestCoalesceDrainFlushesWaiters' ./internal/daemon

# Recovery gate: supervised restart under injected crashes and torn
# checkpoint writes must reproduce the fault-free result
# bit-identically, race-clean (the full per-collective crash matrix
# lives in `make recover`).
echo "== recovery gate (crash resume + torn-checkpoint fallback)"
go test -race -count=1 -run 'TestResumeDeterminismMatrix|TestTornCheckpointFallsBack' ./internal/supervisor

if [ "$smoke" = 1 ]; then
    echo "== fuzz smoke (FuzzOpen + FuzzDecode + FuzzAssignFrame + FuzzPopulateKernels, 10s each)"
    go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s ./internal/diskio
    go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/ckpt
    go test -run '^$' -fuzz '^FuzzAssignFrame$' -fuzztime 10s ./internal/daemon
    go test -run '^$' -fuzz '^FuzzPopulateKernels$' -fuzztime 10s ./internal/mafia

    smokejson="${TMPDIR:-/tmp}/pmafia-bench-smoke.json"
    echo "== bench smoke (cmd/bench -smoke)"
    go run ./cmd/bench -smoke -out "$smokejson" 2>/dev/null

    echo "== bench gate (cmd/bench -compare vs BENCH_pr8.json)"
    go run ./cmd/bench -compare BENCH_pr8.json "$smokejson" -tolerance 0.9
fi

echo "check: ok"
