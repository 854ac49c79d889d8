// Package pool implements the intra-rank worker pool of the
// out-of-core pipeline: each batch of items (a scanner's chunk of
// records, a frame of record blocks) is sharded across a fixed set of
// worker goroutines, every worker folds its range into worker-private
// tallies, and the caller merges the partials once the run ends.
package pool

import (
	"sync"

	"pmafia/internal/dataset"
)

// Run shards successive batches across workers goroutines. next
// returns the item count of the next batch, 0 ending the run;
// fn(w, lo, hi) processes items [lo, hi) of the current batch on worker
// w and must touch only state private to that worker (and the batch's
// items [lo, hi)); done(n), when non-nil, runs on the calling goroutine
// once every worker has finished the batch of n items. Batch boundaries
// are barriers — next is not called again before done returns — so
// next and done may reuse the buffers the workers read and write. With
// workers <= 1 the run is inline with no goroutines. Returns the total
// item count.
//
// Shard boundaries are rounded up to multiples of align within each
// batch (the final boundary stays the batch end). Batch-kernel callers
// pass their block size so a kernel block is never split across two
// workers: every shard but the batch's last is a whole number of
// blocks. Workers whose rounded range is empty skip the batch. align
// <= 1 cuts the batch into near-equal shards.
func Run(workers, align int, next func() int, fn func(w, lo, hi int), done func(n int)) int64 {
	if align < 1 {
		align = 1
	}
	var total int64
	if workers <= 1 {
		for n := next(); n > 0; n = next() {
			fn(0, 0, n)
			if done != nil {
				done(n)
			}
			total += int64(n)
		}
		return total
	}

	type job struct{ lo, hi int }
	jobs := make([]chan job, workers)
	var batchWG sync.WaitGroup // per-batch barrier
	var exitWG sync.WaitGroup  // worker shutdown
	for w := 0; w < workers; w++ {
		ch := make(chan job, 1)
		jobs[w] = ch
		exitWG.Add(1)
		go func(w int, ch chan job) {
			defer exitWG.Done()
			for j := range ch {
				if j.hi > j.lo {
					fn(w, j.lo, j.hi)
				}
				batchWG.Done()
			}
		}(w, ch)
	}
	for n := next(); n > 0; n = next() {
		cut := func(w int) int {
			if w >= workers {
				return n
			}
			return min((w*n/workers+align-1)/align*align, n)
		}
		batchWG.Add(workers)
		for w := 0; w < workers; w++ {
			jobs[w] <- job{lo: cut(w), hi: cut(w + 1)}
		}
		batchWG.Wait()
		if done != nil {
			done(n)
		}
		total += int64(n)
	}
	for _, ch := range jobs {
		close(ch)
	}
	exitWG.Wait()
	return total
}

// Scan is Run over the records of src read in chunks of chunkRecords:
// fn(w, chunk, lo, hi) processes records [lo, hi) of the chunk on
// worker w, and done(n), when non-nil, runs after each chunk of n
// records. Chunk boundaries are barriers, because scanners may reuse
// the chunk buffer. Returns the number of records scanned.
func Scan(src dataset.Source, chunkRecords, workers, align int, fn func(w int, chunk []float64, lo, hi int), done func(n int)) (int64, error) {
	sc := src.Scan(chunkRecords)
	defer sc.Close()
	var chunk []float64
	total := Run(workers, align, func() int {
		var n int
		chunk, n = sc.Next()
		return n
	}, func(w, lo, hi int) { fn(w, chunk, lo, hi) }, done)
	return total, sc.Err()
}
