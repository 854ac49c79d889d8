.PHONY: build test check faults recover

build:
	go build ./...

test:
	go test ./...

# Extended tier-1 gate: vet + gofmt + staticcheck + full suite under
# -race + named gates (among them the population kernels and the
# binned copy they count from) + fuzz smoke on the untrusted-input
# decoders (.pmaf files, checkpoints, .pmfm models, CSV and framed
# request bodies) and the population kernels + the self-test of the
# repository benchmark (perfbench/; run the benchmark itself with
# perfbench/run.sh, see perfbench/README.md).
check:
	sh scripts/check.sh -smoke

# Fault matrix: every injected failure (crash, stall, read errors,
# corruption, torn checkpoint writes) must terminate with a typed
# error under the race detector — no hangs, no process crashes — and a
# damaged binned copy (TestBinnedCopyCorruptFallsBack) must fall back
# to the shard with exact counts.
faults:
	go test -race -run 'Fault|Corrupt|Stall|EndToEnd|Exit|Retry|BitFlip|Abort|Atomic|Truncation|Torn' \
		./internal/faults ./internal/sp2 ./internal/diskio ./internal/mafia \
		./internal/ckpt ./internal/supervisor ./cmd/pmafia

# Recovery matrix: supervised restart/resume under injected crashes,
# stalls, and torn checkpoint writes — every recovered run must
# reproduce the fault-free result bit-identically, race-clean.
recover:
	go test -race -count=1 ./internal/supervisor
	go test -race -count=1 -run 'Manager|Resume|Exit' ./internal/ckpt ./cmd/pmafia
