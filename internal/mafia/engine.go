package mafia

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"pmafia/internal/cluster"
	"pmafia/internal/dataset"
	"pmafia/internal/gen"
	"pmafia/internal/grid"
	"pmafia/internal/histogram"
	"pmafia/internal/obs"
	"pmafia/internal/sp2"
	"pmafia/internal/unit"
)

// LevelStats records one level of the bottom-up loop, the quantities
// Table 2 of the paper reports plus wall-clock instrumentation.
type LevelStats struct {
	K       int // dimensionality of the level
	NcduRaw int // CDUs generated before repeat elimination
	Ncdu    int // unique CDUs whose population was counted
	Ndu     int // dense units identified
	// Seconds is the wall-clock time of the whole level and
	// PopulateSeconds the part spent in the population pass over the
	// data. Meaningful on single-processor runs (on the simulated
	// machine with p > 1 the wall clock interleaves all ranks).
	Seconds         float64
	PopulateSeconds float64
}

// Result is the outcome of a clustering run.
type Result struct {
	// N is the total number of records clustered.
	N int
	// Grid holds the bins and thresholds the run used.
	Grid *grid.Grid
	// Levels records per-level candidate/dense unit counts.
	Levels []LevelStats
	// Clusters are the reported clusters: unique, highest
	// dimensionality, minimal DNF covers.
	Clusters []cluster.Cluster
	// Report carries the parallel machine's timing/communication
	// figures.
	Report *sp2.Report
	// Seconds is the modeled parallel run time (max rank virtual clock
	// in Sim mode; wall clock in Real mode).
	Seconds float64
}

// Run clusters a single in-core or on-disk source on one processor.
func Run(src dataset.Source, cfg Config) (*Result, error) {
	return RunParallel([]dataset.Source{src}, nil, cfg, sp2.Config{Procs: 1})
}

// RunParallel clusters data distributed over one shard per rank.
// domains may be nil, in which case a preliminary parallel pass
// computes the global per-dimension domains. All shards must have the
// same dimensionality; shard r is read only by rank r.
func RunParallel(shards []dataset.Source, domains []dataset.Range, cfg Config, mcfg sp2.Config) (*Result, error) {
	if len(shards) == 0 {
		return nil, errors.New("mafia: no shards")
	}
	if mcfg.Procs == 0 {
		mcfg.Procs = len(shards)
	}
	if mcfg.Procs != len(shards) {
		return nil, fmt.Errorf("mafia: %d shards for %d ranks", len(shards), mcfg.Procs)
	}
	d := shards[0].Dims()
	for r, s := range shards {
		if s.Dims() != d {
			return nil, fmt.Errorf("mafia: shard %d has %d dims, want %d", r, s.Dims(), d)
		}
	}
	if err := cfg.Validate(d); err != nil {
		return nil, err
	}
	if domains != nil && len(domains) != d {
		return nil, fmt.Errorf("mafia: %d domains for %d dims", len(domains), d)
	}

	total := 0
	for _, s := range shards {
		total += s.NumRecords()
	}
	if mcfg.Recorder == nil {
		mcfg.Recorder = cfg.Recorder
	}
	cfg.Recorder = mcfg.Recorder
	results := make([]*Result, mcfg.Procs)
	rep, err := sp2.Run(mcfg, func(c *sp2.Comm) error {
		e := &engine{c: c, shard: shards[c.Rank()], cfg: &cfg, totalRecords: total}
		res, err := e.run(domains)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := results[0]
	res.Report = rep
	res.Seconds = rep.ParallelSeconds
	return res, nil
}

// engine is one rank's view of a run. All ranks execute the same
// sequence of steps (SPMD) and hold identical replicated state (grid,
// unit arrays); only histogram building and population counting touch
// rank-local data.
type engine struct {
	c            *sp2.Comm
	shard        dataset.Source
	cfg          *Config
	g            *grid.Grid
	totalRecords int
	// The global fine histogram is stashed after phase 0 so every
	// checkpoint snapshot stays self-describing (a resumed run embeds
	// the same histogram in its own checkpoints).
	histDomains []dataset.Range
	histUnits   int
	histFlat    []int64
	// pop runs the population passes and holds the rank's binned copy.
	pop populator
}

func (e *engine) run(domains []dataset.Range) (*Result, error) {
	cfg := e.cfg
	rec := cfg.Recorder
	rank := e.c.Rank()
	root := rec.Start(rank, "run")
	defer root.End()
	e.pop = populator{shard: e.shard, chunk: cfg.ChunkRecords, workers: cfg.Workers, rec: rec}
	defer e.pop.drop() // also on a panic: sp2 recovers it above this frame

	if cfg.Resume != nil {
		return e.resume(cfg.Resume)
	}

	var h *histogram.Hist
	if cfg.Hist != nil {
		// Precomputed global histogram: skip the domains and histogram
		// passes (and their collectives — every rank skips identically).
		h = cfg.Hist
		e.histDomains, e.histUnits, e.histFlat = h.Domains, h.Units, h.Flatten()
	} else {
		if domains == nil {
			sp := rec.Start(rank, "domains")
			var err error
			domains, err = e.globalDomains()
			sp.End()
			if err != nil {
				return nil, err
			}
		}

		// Phase 0: per-rank fine histograms, reduced to the global one.
		sp := rec.Start(rank, "histogram")
		h = histogram.New(domains, e.fineUnits())
		mergeSec, err := h.AddSourceParallel(e.shard, cfg.ChunkRecords, cfg.Workers)
		if err != nil {
			sp.End()
			return nil, err
		}
		rec.Add(rank, obs.CtrHistogramRecords, int64(e.shard.NumRecords()))
		rec.Add(rank, obs.CtrPoolMergeNS, int64(mergeSec*1e9))
		flat := h.Flatten()
		e.c.AllreduceSumI64(flat)
		err = h.SetFlattened(flat)
		sp.End()
		if err != nil {
			return nil, err
		}
		if h.N == 0 {
			return nil, errors.New("mafia: empty data set")
		}
		e.histDomains, e.histUnits, e.histFlat = domains, h.Units, flat
	}

	// Adaptive intervals (or the uniform CLIQUE grid) from the global
	// histogram; deterministic, so every rank computes the same grid.
	sp := rec.Start(rank, "grid")
	var err error
	switch cfg.Grid {
	case AdaptiveGrid:
		e.g, err = grid.BuildAdaptive(h, cfg.Adaptive)
	case UniformGrid:
		e.g, err = grid.BuildUniform(h, cfg.UniformBins, cfg.UniformTau)
	case UniformVariableGrid:
		e.g, err = grid.BuildUniformVariable(h, cfg.UniformBinsPerDim, cfg.UniformTau)
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	res := &Result{N: int(h.N), Grid: e.g}

	// Level 1: every bin is a candidate dense unit; its population is
	// its histogram count, so no extra pass is needed.
	lsp := rec.Start(rank, "level").SetLevel(1)
	lvlStart := time.Now()
	cdus1, counts1 := levelOneCandidates(e.g)
	isp := rec.Start(rank, "identify").SetLevel(1)
	du, _, err := e.identifyDense(cdus1, counts1)
	isp.End()
	if err != nil {
		lsp.End()
		return nil, err
	}
	tally := levelTally{
		k: 1, raw: cdus1.Len(), unique: cdus1.Len(), dense: du.Len(),
		seconds: time.Since(lvlStart).Seconds(),
	}
	lsp.End()
	res.Levels = append(res.Levels, tally.stats())
	tally.emit(rec, rank)
	if err := e.checkpoint(res, 1, du, nil); err != nil {
		return nil, err
	}

	return e.runLevels(res, du, nil, 2)
}

// resume restores the replicated state of a checkpointed run and
// re-enters the level loop at snap.Level+1. Every rank applies the same
// snapshot, so the SPMD invariant (identical replicated state, identical
// collective sequence) holds from the first collective of the resumed
// level.
func (e *engine) resume(snap *Snapshot) (*Result, error) {
	if err := snap.Validate(e.shard.Dims()); err != nil {
		return nil, err
	}
	e.g = snap.Grid
	e.histDomains, e.histUnits, e.histFlat = snap.HistDomains, snap.HistUnits, snap.HistFlat
	res := &Result{
		N:      snap.N,
		Grid:   snap.Grid,
		Levels: append([]LevelStats(nil), snap.Levels...),
	}
	registered := append([]*unit.Array(nil), snap.Registered...)
	return e.runLevels(res, snap.DU, registered, snap.Level+1)
}

// runLevels drives the bottom-up loop from level startK with du seeding
// it and registered holding the maximal sets of completed levels, then
// assembles the clusters. A checkpoint snapshot is emitted after each
// completed level (post-prune), so the loop is re-enterable at any
// level barrier.
func (e *engine) runLevels(res *Result, du *unit.Array, registered []*unit.Array, startK int) (*Result, error) {
	cfg := e.cfg
	d := e.shard.Dims()
	rec := cfg.Recorder
	rank := e.c.Rank()

	for k := startK; du.Len() > 0 && k <= cfg.MaxLevels && k <= d; k++ {
		lsp := rec.Start(rank, "level").SetLevel(k)
		lvlStart := time.Now()
		gsp := rec.Start(rank, "generate").SetLevel(k)
		raw, err := e.generate(du, k)
		gsp.End()
		if err != nil {
			lsp.End()
			return nil, err
		}
		dsp := rec.Start(rank, "dedup").SetLevel(k)
		cdus := e.dedup(raw)
		dsp.End()
		var duNext *unit.Array
		var duCounts []int64
		tally := levelTally{k: k, raw: raw.Len(), unique: cdus.Len()}
		if cdus.Len() > 0 {
			psp := rec.Start(rank, "populate").SetLevel(k)
			popStart := time.Now()
			counts, records, popMerge, err := e.populate(cdus)
			psp.End()
			if err != nil {
				lsp.End()
				return nil, err
			}
			tally.popSeconds = time.Since(popStart).Seconds()
			tally.records = records
			tally.mergeSec = popMerge
			isp := rec.Start(rank, "identify").SetLevel(k)
			duNext, duCounts, err = e.identifyDense(cdus, counts)
			isp.End()
			if err != nil {
				lsp.End()
				return nil, err
			}
		} else {
			duNext = unit.New(k, 0)
		}
		tally.dense = duNext.Len()
		tally.seconds = time.Since(lvlStart).Seconds()
		lsp.End()
		res.Levels = append(res.Levels, tally.stats())
		tally.emit(rec, rank)
		registered = append(registered, uncovered(du, duNext))
		du = duNext
		if cfg.Prune != nil && du.Len() > 0 {
			du = cfg.Prune(du, duCounts)
		}
		if err := e.checkpoint(res, k, du, registered); err != nil {
			return nil, err
		}
	}
	if du.Len() > 0 {
		// The loop stopped at the dimensionality cap with dense units
		// in hand: they are maximal by construction.
		registered = append(registered, du)
	}

	sp := rec.Start(rank, "clusters")
	res.Clusters = cluster.EliminateSubsets(cluster.Assemble(registered))
	sp.End()
	return res, nil
}

// checkpoint emits a level-barrier snapshot through the configured
// hook. Only rank 0 calls the hook — the lattice state is replicated,
// so one rank's snapshot restores the whole machine — and the call is
// synchronous, so the hook sees the state exactly as the next level
// will. An error aborts the fit.
func (e *engine) checkpoint(res *Result, level int, du *unit.Array, registered []*unit.Array) error {
	if e.cfg.OnCheckpoint == nil || e.c.Rank() != 0 {
		return nil
	}
	sp := e.cfg.Recorder.Start(0, "checkpoint").SetLevel(level)
	defer sp.End()
	snap := &Snapshot{
		N:           res.N,
		Level:       level,
		Grid:        e.g,
		HistDomains: e.histDomains,
		HistUnits:   e.histUnits,
		HistFlat:    e.histFlat,
		Levels:      append([]LevelStats(nil), res.Levels...),
		DU:          du,
		Registered:  append([]*unit.Array(nil), registered...),
	}
	return e.cfg.OnCheckpoint(snap)
}

// fineUnits resolves the fine-histogram resolution: an explicit
// configuration wins; otherwise scale with the (whole-machine) record
// count so tiny data sets do not produce one-count histograms whose
// window maxima are pure noise.
func (e *engine) fineUnits() int {
	if e.cfg.FineUnits > 0 {
		return e.cfg.FineUnits
	}
	n := e.totalRecords
	units := n / 10
	if units > 1000 {
		units = 1000
	}
	if units < 50 {
		units = 50
	}
	return units
}

// globalDomains computes per-dimension [min, max] over all shards with
// a pair of min/max reductions, then widens the top ends so maxima fall
// inside the half-open domains.
func (e *engine) globalDomains() ([]dataset.Range, error) {
	d := e.shard.Dims()
	lo := make([]float64, d)
	hi := make([]float64, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	sc := e.shard.Scan(e.cfg.ChunkRecords)
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		for r := 0; r < n; r++ {
			rec := chunk[r*d : (r+1)*d]
			for j, v := range rec {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		sc.Close()
		return nil, err
	}
	sc.Close()
	e.c.AllreduceMinF64(lo)
	e.c.AllreduceMaxF64(hi)
	domains := make([]dataset.Range, d)
	for i := range domains {
		switch {
		case math.IsInf(lo[i], 1): // no records anywhere
			domains[i] = dataset.Range{Lo: 0, Hi: 1}
		case hi[i] <= lo[i]:
			domains[i] = dataset.Range{Lo: lo[i], Hi: lo[i] + 1}
		default:
			domains[i] = dataset.Range{Lo: lo[i], Hi: dataset.WidenHi(lo[i], hi[i])}
		}
	}
	return domains, nil
}

// levelOneCandidates lists every bin of every dimension as a
// 1-dimensional CDU together with its already-known population.
func levelOneCandidates(g *grid.Grid) (*unit.Array, []int64) {
	cdus := unit.New(1, g.TotalBins())
	counts := make([]int64, 0, g.TotalBins())
	for di := range g.Dims {
		for bi, b := range g.Dims[di].Bins {
			cdus.AppendRaw([]uint8{uint8(di)}, []uint8{uint8(bi)})
			counts = append(counts, b.Count)
		}
	}
	return cdus, counts
}

// generate builds the level-k CDUs from the (k-1)-dimensional dense
// units. With more than Tau dense units the pairwise work is split by
// the eq. 1 partitioning and the per-rank results are gathered on the
// parent and broadcast (Algorithm 3); otherwise every rank generates
// everything.
func (e *engine) generate(du *unit.Array, k int) (*unit.Array, error) {
	p := e.c.Size()
	if p > 1 && du.Len() > e.cfg.Tau {
		bounds := gen.PartitionPairs(du.Len(), p)
		local, _ := gen.GenerateRange(du, bounds[e.c.Rank()], bounds[e.c.Rank()+1], e.cfg.Join)
		payload := e.c.GatherConcatBcast(local.Encode())
		all, err := unit.Decode(k, payload)
		if err != nil {
			return nil, fmt.Errorf("mafia: corrupt gathered CDUs at level %d: %w", k, err)
		}
		return all, nil
	}
	cdus, _ := gen.Generate(du, e.cfg.Join)
	return cdus, nil
}

// dedup eliminates repeated CDUs (Algorithm 4). With more than Tau
// CDUs each rank marks repeats in its block of the array and the marks
// are OR-reduced; compaction is deterministic and replicated.
func (e *engine) dedup(cdus *unit.Array) *unit.Array {
	n := cdus.Len()
	if n == 0 {
		return cdus
	}
	p := e.c.Size()
	if p > 1 && n > e.cfg.Tau {
		lo, hi := gen.RangeShare(n, e.c.Rank(), p)
		marks := unit.NewBitset(n)
		gen.MarkRepeatsBitset(cdus, lo, hi, marks)
		e.c.AllreduceOrU64(marks.Words()) // 1 bit per CDU on the wire
		return gen.CompactUniqueBitset(cdus, marks)
	}
	return gen.CompactUnique(cdus, gen.MarkRepeats(cdus, 0, n))
}

// populate counts each CDU's population over this rank's shard (read
// in chunks of B records, or from the rank's binned copy once the first
// direct pass has written it) and sum-reduces to the global counts —
// the data-parallel heart of the algorithm. It also returns the number
// of records this rank counted and the worker-pool merge time.
func (e *engine) populate(cdus *unit.Array) ([]int64, int64, float64, error) {
	cnt := newCounter(e.g, cdus, e.cfg.Count)
	mergeSec, err := e.pop.count(cnt)
	if err != nil {
		return nil, 0, 0, err
	}
	e.c.AllreduceSumI64(cnt.counts)
	return cnt.counts, cnt.records, mergeSec, nil
}

// identifyDense compares each CDU's population against the thresholds
// of the bins forming it (Algorithm 5) and builds the dense-unit arrays
// (Algorithm 6) together with the dense units' populations, aligned
// entry for entry with the returned array. With more than Tau CDUs each
// rank processes its block and the per-rank arrays (units and counts)
// are gathered and broadcast; rank-order concatenation keeps the two
// payloads aligned.
func (e *engine) identifyDense(cdus *unit.Array, counts []int64) (*unit.Array, []int64, error) {
	n := cdus.Len()
	p := e.c.Size()
	if p > 1 && n > e.cfg.Tau {
		lo, hi := gen.RangeShare(n, e.c.Rank(), p)
		local, localCounts := e.denseInRange(cdus, counts, lo, hi)
		payload := e.c.GatherConcatBcast(local.Encode())
		all, err := unit.Decode(cdus.K, payload)
		if err != nil {
			return nil, nil, fmt.Errorf("mafia: corrupt gathered dense units at level %d: %w", cdus.K, err)
		}
		countPayload := e.c.GatherConcatBcast(encodeCounts(localCounts))
		allCounts, err := decodeCounts(countPayload)
		if err != nil {
			return nil, nil, fmt.Errorf("mafia: corrupt gathered dense counts at level %d: %w", cdus.K, err)
		}
		if len(allCounts) != all.Len() {
			return nil, nil, fmt.Errorf("mafia: %d gathered dense counts for %d dense units at level %d", len(allCounts), all.Len(), cdus.K)
		}
		return all, allCounts, nil
	}
	du, duCounts := e.denseInRange(cdus, counts, 0, n)
	return du, duCounts, nil
}

// denseInRange applies the density test to cdus[lo:hi) and returns the
// dense units with their populations, aligned entry for entry.
func (e *engine) denseInRange(cdus *unit.Array, counts []int64, lo, hi int) (*unit.Array, []int64) {
	out := unit.New(cdus.K, hi-lo)
	outCounts := make([]int64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if float64(counts[i]) > maxThreshold(e.g, cdus, i) {
			d, b := cdus.Unit(i)
			out.AppendRaw(d, b)
			outCounts = append(outCounts, counts[i])
		}
	}
	return out, outCounts
}

// encodeCounts serializes counts as little-endian int64s for the
// gather collective.
func encodeCounts(counts []int64) []byte {
	buf := make([]byte, 8*len(counts))
	for i, c := range counts {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(c))
	}
	return buf
}

func decodeCounts(buf []byte) ([]int64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("count payload of %d bytes is not a whole number of int64s", len(buf))
	}
	counts := make([]int64, len(buf)/8)
	for i := range counts {
		counts[i] = int64(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return counts, nil
}

// uncovered returns the dense units of level k that are not a face of
// any dense unit of level k+1. These are maximal regions: no
// higher-dimensional dense unit extends them, so they are registered
// for cluster reporting. (The paper registers units that failed to
// combine into any CDU; checking coverage against the *dense* units of
// the next level is the same idea applied after the density test, and
// guarantees every maximal dense region is reported.)
func uncovered(du, duNext *unit.Array) *unit.Array {
	if duNext.Len() == 0 {
		return du
	}
	k1 := duNext.K
	faces := make(map[string]bool, duNext.Len()*k1)
	fd := make([]uint8, k1-1)
	fb := make([]uint8, k1-1)
	for i := 0; i < duNext.Len(); i++ {
		d, b := duNext.Unit(i)
		for drop := 0; drop < k1; drop++ {
			w := 0
			for x := 0; x < k1; x++ {
				if x == drop {
					continue
				}
				fd[w], fb[w] = d[x], b[x]
				w++
			}
			faces[unit.KeyOf(fd, fb)] = true
		}
	}
	out := unit.New(du.K, 0)
	for i := 0; i < du.Len(); i++ {
		if !faces[du.Key(i)] {
			d, b := du.Unit(i)
			out.AppendRaw(d, b)
		}
	}
	return out
}

// AssignRecord returns the index into Clusters of the first cluster
// containing the record (clusters are ordered by descending
// dimensionality, so ties go to the most specific cluster), or -1 when
// the record belongs to no cluster (an outlier/noise record).
func (r *Result) AssignRecord(rec []float64) int {
	for ci := range r.Clusters {
		if r.Clusters[ci].Contains(rec, r.Grid) {
			return ci
		}
	}
	return -1
}

// Assign labels every record of src with its cluster index per
// AssignRecord, reading in chunks of chunkRecords. The result has one
// entry per record in scan order.
func (r *Result) Assign(src dataset.Source, chunkRecords int) ([]int32, error) {
	if chunkRecords <= 0 {
		chunkRecords = 8192
	}
	d := src.Dims()
	if d != len(r.Grid.Dims) {
		return nil, fmt.Errorf("mafia: assigning %d-dim records with a %d-dim result", d, len(r.Grid.Dims))
	}
	labels := make([]int32, 0, src.NumRecords())
	sc := src.Scan(chunkRecords)
	defer sc.Close()
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			labels = append(labels, int32(r.AssignRecord(chunk[i*d:(i+1)*d])))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return labels, nil
}
