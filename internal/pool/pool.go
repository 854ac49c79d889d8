// Package pool implements the intra-rank worker pool of the
// out-of-core pipeline: each chunk a scanner yields is sharded across a
// fixed set of worker goroutines, every worker folds its record range
// into worker-private tallies, and the caller merges the partials once
// the scan ends.
package pool

import (
	"sync"

	"pmafia/internal/dataset"
)

// Scan reads src in chunks of chunkRecords and shards each chunk's
// records across workers goroutines: fn(w, chunk, lo, hi) processes
// records [lo, hi) of the chunk on worker w and must touch only state
// private to that worker. Chunk boundaries are barriers — calls for
// chunk k+1 begin only after every worker finished chunk k, because
// scanners may reuse the chunk buffer. With workers <= 1 the scan runs
// inline with no goroutines. Returns the number of records scanned.
//
// Shard boundaries are rounded up to multiples of align within each
// chunk (the final boundary stays the chunk end). Batch-kernel callers
// pass their block size so a kernel block is never split across two
// workers: every shard but the chunk's last is a whole number of
// blocks. Workers whose rounded range is empty skip the chunk. align
// <= 1 cuts the chunk into near-equal shards.
func Scan(src dataset.Source, chunkRecords, workers, align int, fn func(w int, chunk []float64, lo, hi int)) (int64, error) {
	if align < 1 {
		align = 1
	}
	sc := src.Scan(chunkRecords)
	defer sc.Close()
	if workers <= 1 {
		var total int64
		for {
			chunk, n := sc.Next()
			if n == 0 {
				break
			}
			fn(0, chunk, 0, n)
			total += int64(n)
		}
		return total, sc.Err()
	}

	type job struct {
		chunk  []float64
		lo, hi int
	}
	jobs := make([]chan job, workers)
	var chunkWG sync.WaitGroup // per-chunk barrier
	var exitWG sync.WaitGroup  // worker shutdown
	for w := 0; w < workers; w++ {
		ch := make(chan job, 1)
		jobs[w] = ch
		exitWG.Add(1)
		go func(w int, ch chan job) {
			defer exitWG.Done()
			for j := range ch {
				if j.hi > j.lo {
					fn(w, j.chunk, j.lo, j.hi)
				}
				chunkWG.Done()
			}
		}(w, ch)
	}
	var total int64
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		cut := func(w int) int {
			if w >= workers {
				return n
			}
			b := (w*n/workers + align - 1) / align * align
			if b > n {
				b = n
			}
			return b
		}
		chunkWG.Add(workers)
		for w := 0; w < workers; w++ {
			jobs[w] <- job{chunk: chunk, lo: cut(w), hi: cut(w + 1)}
		}
		chunkWG.Wait()
		total += int64(n)
	}
	for _, ch := range jobs {
		close(ch)
	}
	exitWG.Wait()
	return total, sc.Err()
}
