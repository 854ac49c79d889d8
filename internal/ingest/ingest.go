// Package ingest is the streaming front end of the fit pipeline: it
// accepts record chunks as they arrive, maintains the incremental
// state a refit needs — the accumulated records plus the global fine
// histogram the adaptive grid is built from — and periodically refits
// in the background, emitting each new model as a generation-stamped
// .pmfm file written atomically next to the previous one.
//
// The histogram is maintained with the same mergeable kernel the batch
// engine uses (histogram.AddChunk), under the same domain-widening and
// unit-count rules, so a refit over the accumulated stream produces
// bit-identical models to a batch fit over the same records: arriving
// chunks fold into the running counts in O(chunk), and a record that
// falls outside a dimension's observed domain forces a rebuild pass
// over the buffer for that dimension's row alone. The buffer holds each
// record once, in fixed blocks of 8192 records that are filled in place
// and never copied or moved. A refit is mafia.Run over a frozen view of
// the first n records with the frozen histogram handed over through
// mafia.Config.Hist, which skips the engine's own domains and histogram
// passes, and the previous refit's CDU populations handed over through
// mafia.Config.Populations, so every level whose CDUs and bins are
// unchanged counts only the records appended since; then
// modelio.SaveMeta writes the result.
//
// Concurrency model: Append and Refit are safe to call from any
// goroutine. Refits are serialized (single-flight) and run against a
// frozen snapshot — a copy of the block list taken under the lock,
// whose records stay as they are while later appends fill the last
// block past them and start new blocks — so ingestion never stalls
// behind a fit. The serving daemon watches the output path and
// hot-swaps each new generation in; the ingester itself never blocks
// on serving.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pmafia/internal/dataset"
	"pmafia/internal/histogram"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// Config parameterizes an Ingester.
type Config struct {
	// Dir is the directory the versioned model is written into.
	Dir string
	// Model is the model file name within Dir (default "stream.pmfm").
	Model string
	// RefitEvery, when > 0, triggers a background refit whenever that
	// many records have arrived since the last refit snapshot. 0 means
	// refits happen only through explicit Refit calls.
	RefitEvery int
	// Recorder receives the ingest.* counters, the pending-records
	// gauge and the refit-duration histogram. The refit's own fit runs
	// without a recorder, so a long-lived recorder does not accumulate
	// every refit's engine spans and collective events. nil costs
	// nothing.
	Recorder *obs.Recorder
}

// Stats is a point-in-time snapshot of an ingester.
type Stats struct {
	// Records is the total number of records accumulated.
	Records int
	// Pending is the number of records not yet covered by a completed
	// refit.
	Pending int
	// Generation is the generation of the newest model written (0 when
	// no refit has completed).
	Generation uint64
}

// Ingester accumulates a record stream and refits models from it. Use
// New, then Append from any goroutine; Close waits for any
// in-flight background refit.
type Ingester struct {
	cfg  Config
	dims int
	path string

	// fitMu serializes refits (single-flight); held across the whole
	// fit, never while holding mu.
	fitMu sync.Mutex
	wg    sync.WaitGroup
	// pops holds the CDU populations the last refit counted, over a
	// prefix of the buffer; the next refit counts only the records past
	// it at every level that kept its CDUs and bins. Guarded by fitMu.
	pops mafia.Populations

	mu       sync.Mutex
	buf      blocks
	hist     *histogram.Hist
	lo, hi   []float64 // observed per-dimension min/max
	gen      uint64    // generation of the newest model written
	lastFitN int       // records covered by the newest model
	fitting  bool      // a background refit is in flight
	closed   bool
}

// New creates an ingester for dims-dimensional records writing its
// models under cfg.Dir.
func New(dims int, cfg Config) (*Ingester, error) {
	if dims < 1 || dims > 255 {
		return nil, fmt.Errorf("ingest: dimensionality %d out of [1,255]", dims)
	}
	if cfg.Dir == "" {
		return nil, errors.New("ingest: Config.Dir is required")
	}
	if cfg.Model == "" {
		cfg.Model = "stream.pmfm"
	}
	if cfg.RefitEvery < 0 {
		return nil, fmt.Errorf("ingest: RefitEvery %d < 0", cfg.RefitEvery)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	ing := &Ingester{
		cfg:  cfg,
		dims: dims,
		path: filepath.Join(cfg.Dir, cfg.Model),
		buf:  blocks{d: dims},
		lo:   make([]float64, dims),
		hi:   make([]float64, dims),
	}
	for i := 0; i < dims; i++ {
		ing.lo[i] = math.Inf(1)
		ing.hi[i] = math.Inf(-1)
	}
	return ing, nil
}

// Path returns the model file path refits write to.
func (ing *Ingester) Path() string { return ing.path }

// Dims returns the record dimensionality.
func (ing *Ingester) Dims() int { return ing.dims }

// Append folds n row-major records (n*Dims values) into the stream:
// the records are copied into the buffer's blocks for future refits —
// the last block first, then new ones; no block is ever copied or
// regrown — and the running fine histogram absorbs them. When the
// records grow a dimension's observed domain, that dimension's row is
// recounted over the whole buffer (and every row is, when the
// auto-scaled unit count steps up), so the binning stays identical to
// what a batch fit over the same data would compute. Triggers a
// background refit when RefitEvery is crossed.
func (ing *Ingester) Append(chunk []float64, n int) error {
	d := ing.dims
	if n <= 0 {
		return fmt.Errorf("ingest: appending %d records", n)
	}
	if len(chunk) < n*d {
		return fmt.Errorf("ingest: chunk holds %d values, %d records of %d dims need %d", len(chunk), n, d, n*d)
	}
	chunk = chunk[:n*d]

	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return errors.New("ingest: ingester is closed")
	}
	var grown []int // dimensions whose observed range the chunk widened
	for j := 0; j < d; j++ {
		lo, hi := ing.lo[j], ing.hi[j]
		for p := j; p < len(chunk); p += d {
			// Not the min/max builtins: a NaN must leave the range alone,
			// as it does in a batch fit's domain pass.
			v := chunk[p]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo != ing.lo[j] || hi != ing.hi[j] {
			ing.lo[j], ing.hi[j] = lo, hi
			grown = append(grown, j)
		}
	}
	ing.buf.add(chunk)
	total := ing.buf.NumRecords()
	units := mafia.AutoFineUnits(total)
	if ing.hist == nil || units != ing.hist.Units {
		// A unit-count step changes every dimension's binning: rebuild
		// from the buffer. It stops once the stream passes 10,000
		// records.
		domains := make([]dataset.Range, d)
		for j := range domains {
			domains[j] = ing.domainLocked(j)
		}
		// The buffer's scans cannot fail, here or in Rebin below.
		h := histogram.New(domains, units)
		_ = h.AddSource(&ing.buf, blockRecords)
		ing.hist = h
	} else {
		// A grown domain changes its own dimension's binning only: that
		// row is recounted over the buffer, every other row absorbs the
		// chunk in place.
		ing.hist.AddChunk(chunk, n)
		for _, j := range grown {
			_ = ing.hist.Rebin(j, ing.domainLocked(j), &ing.buf, blockRecords)
		}
	}
	pending := total - ing.lastFitN
	trigger := ing.cfg.RefitEvery > 0 && !ing.fitting && pending >= ing.cfg.RefitEvery
	if trigger {
		ing.fitting = true
		ing.wg.Add(1)
	}
	ing.mu.Unlock()

	rec := ing.cfg.Recorder
	rec.AddGlobal(obs.CtrIngestRecords, int64(n))
	rec.AddGlobal(obs.CtrIngestChunks, 1)
	rec.SetGauge(obs.GaugeIngestPending, float64(pending))
	if trigger {
		go func() {
			defer ing.wg.Done()
			ing.Refit()
		}()
	}
	return nil
}

// Refit synchronously fits a model over the records accumulated so far
// and atomically writes it as the next generation. Refits are
// single-flight: concurrent callers queue behind the running one.
// Ingestion continues during the fit — the fit reads a frozen snapshot
// of the buffer and histogram.
func (ing *Ingester) Refit() (generation uint64, err error) {
	ing.fitMu.Lock()
	defer ing.fitMu.Unlock()
	start := time.Now()
	rec := ing.cfg.Recorder

	ing.mu.Lock()
	snap := ing.buf.frozen()
	n := snap.NumRecords()
	var h *histogram.Hist
	if n > 0 {
		h = ing.hist.Clone()
	}
	nextGen := ing.gen + 1
	ing.mu.Unlock()

	if n == 0 {
		err = errors.New("ingest: no records to fit")
	} else {
		err = ing.fit(snap, h, nextGen)
	}

	ing.mu.Lock()
	ing.fitting = false
	if err == nil {
		ing.gen = nextGen
		ing.lastFitN = n
	}
	pending := ing.buf.NumRecords() - ing.lastFitN
	ing.mu.Unlock()

	if err != nil {
		rec.AddGlobal(obs.CtrIngestRefitErrors, 1)
	} else {
		rec.AddGlobal(obs.CtrIngestRefits, 1)
		rec.Observe(0, obs.HistIngestRefitSeconds, time.Since(start).Seconds())
		generation = nextGen
	}
	rec.SetGauge(obs.GaugeIngestPending, float64(pending))
	return generation, err
}

// fit runs the engine over a frozen snapshot and writes the model.
func (ing *Ingester) fit(snap dataset.Source, h *histogram.Hist, gen uint64) error {
	res, err := mafia.Run(snap, mafia.Config{Hist: h, Populations: &ing.pops})
	if err != nil {
		return err
	}
	return modelio.SaveMeta(ing.path, res, gen)
}

// Stats snapshots the ingester's counters.
func (ing *Ingester) Stats() Stats {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	n := ing.buf.NumRecords()
	return Stats{
		Records:    n,
		Pending:    n - ing.lastFitN,
		Generation: ing.gen,
	}
}

// Close stops accepting appends and waits for any in-flight background
// refit to finish. Idempotent.
func (ing *Ingester) Close() error {
	ing.mu.Lock()
	ing.closed = true
	ing.mu.Unlock()
	ing.wg.Wait()
	return nil
}

// domainLocked widens dimension j's observed min/max into the
// half-open domain a batch fit would compute over the same records:
// [0,1) while the dimension has seen nothing but NaN. Caller holds
// ing.mu.
func (ing *Ingester) domainLocked(j int) dataset.Range {
	if math.IsInf(ing.lo[j], 1) {
		return dataset.Range{Lo: 0, Hi: 1}
	}
	return dataset.Widen(dataset.Range{Lo: ing.lo[j], Hi: ing.hi[j]})
}
