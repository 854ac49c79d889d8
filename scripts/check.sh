#!/bin/sh
# Extended tier-1 gate: vet (also for a big-endian target), formatting,
# and the full test suite under the race detector, then named gates
# that must each resolve to real tests (metric names, serving: the
# batch assign kernels and the framed handler's allocations, the CSV
# decoder against strconv and encoding/csv, population kernels and the
# binned copy they count from, incremental refits, hot swap,
# recovery). With -smoke it additionally runs the fuzz smoke (every
# untrusted-input decoder: .pmaf files, checkpoints, .pmfm models, CSV
# and framed request bodies and the CSV field parser; plus the
# population kernels, raw and stored) and the self-test of the
# repository benchmark (perfbench/, its own Go module; see
# perfbench/README.md).
# Run from the repository root (or via `make check`, which passes
# -smoke).
set -eu

cd "$(dirname "$0")/.."

smoke=0
for arg in "$@"; do
    case "$arg" in
        -smoke) smoke=1 ;;
        *) echo "usage: check.sh [-smoke]" >&2; exit 2 ;;
    esac
done

# gate FLAG NAMES PKG [GO_TEST_ARGS...] runs the |-separated NAMES of
# PKG as `go test GO_TEST_ARGS FLAG '^(NAMES)$' PKG`, FLAG being -run
# or -fuzz. A pattern that selects nothing passes silently ("[no tests
# to run]", "no fuzz tests to fuzz"), so each name must first resolve
# to a test of PKG: a renamed test fails its gate instead of emptying
# it.
gate() {
    flag=$1 names=$2 pkg=$3
    shift 3
    for name in $(echo "$names" | tr '|' ' '); do
        if ! go test -list "^$name\$" "$pkg" | grep -qx "$name"; then
            echo "gate: $pkg has no test $name" >&2
            exit 1
        fi
    done
    go test "$@" "$flag" "^($names)\$" "$pkg"
}

echo "== go vet ./..."
go vet ./...

# Record files and PMAS frames are decoded in place, which on a
# big-endian host takes a byte-swap branch no CI host runs natively.
# Cross-vetting for s390x (offline, from GOROOT) keeps that branch
# compiling and vetted; TestReverseBytesDecodesForeignOrder checks its
# logic on the host.
echo "== GOARCH=s390x go vet ./... (big-endian build)"
GOARCH=s390x go vet ./...

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Static analysis beyond vet, with an installed binary only: the gate
# never downloads, so it runs the same offline. Install the pinned
# version so CI and laptops agree on the check set; without a binary
# the step skips with a notice rather than turning an environment gap
# into a red gate.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2025.1.1}"
echo "== staticcheck ./... (pinned $STATICCHECK_VERSION)"
staticcheck_bin=""
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck_bin=staticcheck
elif [ -x "$(go env GOPATH)/bin/staticcheck" ]; then
    staticcheck_bin="$(go env GOPATH)/bin/staticcheck"
fi
if [ -n "$staticcheck_bin" ]; then
    "$staticcheck_bin" ./...
else
    echo "staticcheck: not installed (go install honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION) — skipped" >&2
fi

# Metric-name hygiene: every trace.* (and every other) counter the
# daemon emits must belong to the closed obs registry with
# a locked Prometheus mapping, and no metric-name string literal may
# bypass the registry constants.
echo "== metric-name registry gate"
gate -run 'TestCounterRegistry|TestHistogramRegistry|TestPromNameMapping' ./internal/obs -count=1
gate -run 'TestAllEmittedMetricsAreRegistered' ./internal/daemon -count=1
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
# concurrent assignment + scraping with a leak-free shutdown, the
# compiled assignment index and its batch kernels (which bin only the
# dimensions some box bounds) must agree bit-for-bit with the engine's
# linear-scan oracle and the scalar labeler, and a warm framed /assign
# must allocate the pinned count with no bytes that grow with the
# frame. The allocation pin runs without -race, whose sync.Pool drops
# recycled buffers at random (the test skips itself under -race).
echo "== serving gate (daemon concurrency/leak + assign differential + framed allocations)"
gate -run 'TestConcurrentAssignAndScrape' ./internal/daemon -race -count=1
gate -run 'TestPropertyMatchesOracle|TestFittedModelMatchesEngineAssign|TestBatchKernelPropertySweep' ./internal/assign -race -count=1
gate -run 'TestFramedHandlerAllocs' ./internal/daemon -count=1

# CSV decoder differential gate: the field parser must return
# strconv.ParseFloat's bits and verdict on millions of formatted
# floats, random digit strings and boundary cases, and ReadCSV (split
# lines, then encoding/csv from the first quote) must decode every body
# exactly as the row-by-row encoding/csv decoder does, error texts and
# line numbers included.
echo "== CSV decoder differential gate (field parser vs strconv, ReadCSV vs row decoder)"
gate -run 'TestParseFloatMatchesStrconv|TestReadCSVMatchesRowDecoder' ./internal/dataset -count=1

# The fit path's population kernels (bit-sliced direct, grouped bitset,
# and the direct kernel counting from the binned copy) must agree count for count with the scalar per-record oracle on
# edge-case records, partial blocks, and sharded workers; parallel fits
# whose ranks count from pooled copies must equal the serial fit; a
# damaged or uncreatable copy must fall back to the shard with the
# oracle's counts, a missing atom must fail, and no copy may outlive
# its fit.
echo "== population-kernel differential gate (kernels and binned copy vs scalar oracle)"
gate -run 'TestCountKernelsAgree|TestParallelMatchesSerial|TestBinnedCopyCorruptFallsBack|TestBinnedCopyUncreatableKeepsRawPasses|TestBinnedCopyMissingAtomErrors|TestBinnedCopyLeavesNoFiles' ./internal/mafia -race -count=1

# Incremental-refit gate: a fit handed the populations of an earlier
# fit over a prefix of its records (the streaming ingester's refits)
# must equal a from-scratch fit after every append, in grid, clusters,
# levels and every level's CDU populations, and only single-rank,
# unresumed fits may take them; the ingester's histogram, rebuilt one
# dimension at a time as domains grow, must equal a batch build; and a
# refit that runs while appends fill the ingester's blocks must equal
# a from-scratch fit of the prefix its snapshot froze (ten times, under
# the race detector).
echo "== incremental-refit gate (stored populations, per-dimension rebuilds and refits beside appends vs from-scratch fits)"
gate -run 'TestIncrementalFitMatchesScratch|TestPopulationsRejected' ./internal/mafia -race -count=1
gate -run 'TestAppendRebinsGrownDimension|TestRefitMatchesBatch' ./internal/ingest -race -count=1
gate -run 'TestRefitDuringAppends' ./internal/ingest -race -count=10

# Swap-under-load gate: while sustained traffic runs, the served model
# file is rewritten with alternating generations (and once with
# garbage) — every response must match exactly one generation's
# oracle, never a torn mix, and a failed swap must keep the previous
# generation serving.
echo "== swap gate (hot swap under load)"
gate -run 'TestStaleModelReloaded|TestSwapUnderLoad' ./internal/daemon -race -count=1

# Recovery gate: supervised restart under injected crashes and torn
# checkpoint writes must reproduce the fault-free result
# bit-identically, race-clean (the full per-collective crash matrix
# lives in `make recover`).
echo "== recovery gate (crash resume + torn-checkpoint fallback)"
gate -run 'TestResumeDeterminismMatrix|TestTornCheckpointFallsBack' ./internal/supervisor -race -count=1

if [ "$smoke" = 1 ]; then
    # Minimizing each new input would otherwise eat most of the 10 s
    # window (a few thousand execs); one minimization step per input
    # leaves the window to fuzzing.
    echo "== fuzz smoke (FuzzOpen + FuzzDecode + FuzzLoad + FuzzReadCSV + FuzzParseFloat + FuzzAssignFrame + FuzzPopulateKernels, 10s each)"
    gate -fuzz FuzzOpen ./internal/diskio -run '^$' -fuzztime 10s -fuzzminimizetime 1x
    gate -fuzz FuzzDecode ./internal/ckpt -run '^$' -fuzztime 10s -fuzzminimizetime 1x
    gate -fuzz FuzzLoad ./internal/modelio -run '^$' -fuzztime 10s -fuzzminimizetime 1x
    gate -fuzz FuzzReadCSV ./internal/dataset -run '^$' -fuzztime 10s -fuzzminimizetime 1x
    gate -fuzz FuzzParseFloat ./internal/dataset -run '^$' -fuzztime 10s -fuzzminimizetime 1x
    gate -fuzz FuzzAssignFrame ./internal/daemon -run '^$' -fuzztime 10s -fuzzminimizetime 1x
    gate -fuzz FuzzPopulateKernels ./internal/mafia -run '^$' -fuzztime 10s -fuzzminimizetime 1x

    # Short runs of every workload against a freshly built pmafiad,
    # including the check that a corrupted label must fail the run.
    echo "== benchmark self-test (perfbench)"
    (cd perfbench && go test -count=1 ./...)
fi

echo "check: ok"
