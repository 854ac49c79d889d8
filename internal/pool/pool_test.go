package pool

import (
	"sync/atomic"
	"testing"

	"pmafia/internal/dataset"
)

// TestScanCoversEveryRecordOnce checks, for worker counts around and
// beyond the chunk size, that the sharded calls tile each chunk exactly
// — every record processed once, on a stable worker, with per-chunk
// barrier semantics (no two workers ever touch different chunks at
// once, which would break buffer reuse).
func TestScanCoversEveryRecordOnce(t *testing.T) {
	const n, d = 457, 3
	m := dataset.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float64(i)
		}
	}
	for _, workers := range []int{0, 1, 2, 5, 64} {
		for _, chunk := range []int{1, 10, 64, 1000} {
			seen := make([]int32, n)
			total, err := Scan(m, chunk, workers, 1, func(w int, c []float64, lo, hi int) {
				for r := lo; r < hi; r++ {
					atomic.AddInt32(&seen[int(c[r*d])], 1)
				}
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if total != n {
				t.Fatalf("workers=%d chunk=%d: total=%d, want %d", workers, chunk, total, n)
			}
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("workers=%d chunk=%d: record %d seen %d times", workers, chunk, i, s)
				}
			}
		}
	}
}

// TestScanWorkerPrivacy checks worker indices stay in range and that a
// given worker's calls never overlap in time (each worker may safely
// own unsynchronized private state).
func TestScanWorkerPrivacy(t *testing.T) {
	const n, d, workers = 2048, 2, 4
	m := dataset.NewMatrix(n, d)
	busy := make([]int32, workers)
	_, err := Scan(m, 128, workers, 1, func(w int, c []float64, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
		}
		if atomic.AddInt32(&busy[w], 1) != 1 {
			t.Errorf("worker %d reentered concurrently", w)
		}
		for r := lo; r < hi; r++ {
			_ = c[r*d]
		}
		atomic.AddInt32(&busy[w], -1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanAlignedShardCuts checks the aligned sharding contract
// the batch-kernel path relies on: within each chunk, every shard
// starts on an align multiple and ends on one (except the shard that
// ends at the chunk end), shards never overlap, and every record is
// still covered exactly once — including the degenerate shapes
// (align > chunk, workers > records, tail chunks).
func TestScanAlignedShardCuts(t *testing.T) {
	const d = 2
	for _, n := range []int{1, 63, 64, 457, 1000} {
		m := dataset.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			m.Row(i)[0] = float64(i)
		}
		for _, workers := range []int{1, 2, 3, 5, 64} {
			for _, chunk := range []int{50, 64, 97, 256} {
				for _, align := range []int{1, 8, 64, 128} {
					seen := make([]int32, n)
					total, err := Scan(m, chunk, workers, align, func(w int, c []float64, lo, hi int) {
						chunkLen := len(c) / d
						if lo%align != 0 {
							t.Errorf("n=%d workers=%d chunk=%d align=%d: shard starts at %d", n, workers, chunk, align, lo)
						}
						if hi%align != 0 && hi != chunkLen {
							t.Errorf("n=%d workers=%d chunk=%d align=%d: shard ends at %d (chunk is %d)", n, workers, chunk, align, hi, chunkLen)
						}
						for r := lo; r < hi; r++ {
							atomic.AddInt32(&seen[int(c[r*d])], 1)
						}
					}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if total != int64(n) {
						t.Fatalf("n=%d workers=%d chunk=%d align=%d: total=%d", n, workers, chunk, align, total)
					}
					for i, s := range seen {
						if s != 1 {
							t.Fatalf("n=%d workers=%d chunk=%d align=%d: record %d seen %d times", n, workers, chunk, align, i, s)
						}
					}
				}
			}
		}
	}
}

// TestScanEmptySource checks the degenerate cases terminate.
func TestScanEmptySource(t *testing.T) {
	m := dataset.NewMatrix(0, 4)
	for _, workers := range []int{1, 3} {
		total, err := Scan(m, 16, workers, 1, func(int, []float64, int, int) {
			t.Error("callback on empty source")
		}, nil)
		if err != nil || total != 0 {
			t.Fatalf("total=%d err=%v", total, err)
		}
	}
}

// TestRunDoneAfterEveryWorker checks the per-batch hook: done(n) runs
// once per batch, in batch order, after every shard of that batch and
// before next yields the following batch, for inline and pooled runs.
func TestRunDoneAfterEveryWorker(t *testing.T) {
	sizes := []int{5, 64, 1, 130, 7}
	for _, workers := range []int{1, 3} {
		var pending atomic.Int64 // items of the current batch not yet processed
		batch, calls := 0, 0
		total := Run(workers, 4, func() int {
			if pending.Load() != 0 {
				t.Errorf("workers=%d: next called with %d items unprocessed", workers, pending.Load())
			}
			if batch == len(sizes) {
				return 0
			}
			pending.Store(int64(sizes[batch]))
			return sizes[batch]
		}, func(w, lo, hi int) {
			pending.Add(-int64(hi - lo))
		}, func(n int) {
			if pending.Load() != 0 || n != sizes[batch] {
				t.Errorf("workers=%d batch %d: done(%d) with %d items unprocessed", workers, batch, n, pending.Load())
			}
			batch++
			calls++
		})
		if calls != len(sizes) {
			t.Errorf("workers=%d: done ran %d times for %d batches", workers, calls, len(sizes))
		}
		if total != 207 {
			t.Errorf("workers=%d: total %d, want 207", workers, total)
		}
	}
}
