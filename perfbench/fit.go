package main

// The fit workloads: repeated pMAFIA fits of a generated .pmaf file
// through mafia.RunParallel in Real mode at p = nproc ranks, every
// other setting at the cmd/pmafia defaults.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/grid"
	"pmafia/internal/mafia"
	"pmafia/internal/obs"
	"pmafia/internal/quality"
	"pmafia/internal/sp2"
)

// fitTail is the percentile of fit times tail_ms reports. The quarter
// of a run's 25-40 fits taken under the least steal are used, so
// higher percentiles would rest on one or two fits.
const fitTail = 0.75

// setupReps is how many times a workload's set-up is repeated; setup_s
// is the median, because a single set-up time swings with the host.
const setupReps = 3

// fitConfig is the cmd/pmafia default configuration.
func fitConfig(rec *obs.Recorder) mafia.Config {
	return mafia.Config{
		Adaptive:     grid.AdaptiveParams{Alpha: 1.5, BetaPercent: 50},
		ChunkRecords: 8192,
		Workers:      1,
		Recorder:     rec,
	}
}

// scanClusters is the generator spec of the old tracked suite: two
// hyper-rectangular clusters in 2-d and 3-d subspaces of 10 dims.
func scanClusters() []datagen.Cluster {
	return []datagen.Cluster{
		datagen.UniformBox([]int{1, 4}, []dataset.Range{{Lo: 20, Hi: 40}, {Lo: 55, Hi: 80}}, 0),
		datagen.UniformBox([]int{0, 3, 6}, []dataset.Range{{Lo: 10, Hi: 30}, {Lo: 40, Hi: 70}, {Lo: 60, Hi: 90}}, 0),
	}
}

// staggered builds a cluster over dims as a union of boxes that share
// a width and step by stride in every dimension, so the adaptive grid
// splits each dimension of the cluster into several bins.
func staggered(dims []int, lo, width, stride float64, boxes int) datagen.Cluster {
	cl := datagen.Cluster{Dims: dims}
	for b := 0; b < boxes; b++ {
		box := make(datagen.Box, len(dims))
		for x := range dims {
			// Alternate the step direction across dims so the boxes
			// overlap only partially.
			off := float64(b) * stride
			if x%2 == 1 {
				off = float64(boxes-1-b) * stride
			}
			box[x] = dataset.Range{Lo: lo + off, Hi: lo + off + width}
		}
		cl.Boxes = append(cl.Boxes, box)
	}
	return cl
}

// deepClusters are two 8-d clusters in 16 dims, each a union of
// staggered boxes: a deep CDU lattice over a small data set.
func deepClusters() []datagen.Cluster {
	return []datagen.Cluster{
		staggered([]int{0, 2, 4, 6, 8, 10, 12, 14}, 10, 16, 4, 2),
		staggered([]int{1, 3, 5, 7, 9, 11, 13, 15}, 50, 16, 4, 2),
	}
}

// fitInput describes a generated fit input.
type fitInput struct {
	dims, blocks, blockRecords int
	clusters                   []datagen.Cluster
}

func scanInput(short bool) fitInput {
	in := fitInput{dims: 10, blocks: 4, blockRecords: 500_000, clusters: scanClusters()}
	if short {
		in.blocks, in.blockRecords = 1, 20_000
	}
	return in
}

func deepInput(short bool) fitInput {
	in := fitInput{dims: 16, blocks: 1, blockRecords: 200_000, clusters: deepClusters()}
	if short {
		in.blockRecords = 20_000
	}
	return in
}

// writeInput generates the input in blocks (each shuffled, with the
// generator's 10% noise) and appends them to a .pmaf file, so the
// whole data set is never held in memory at once; the next block is
// generated while the current one is written. It returns the ground
// truth of the embedded clusters.
func writeInput(path string, in fitInput, seed uint64) (*datagen.Truth, error) {
	type block struct {
		m     *dataset.Matrix
		truth *datagen.Truth
		err   error
	}
	gen := func(b int) <-chan block {
		ch := make(chan block, 1)
		go func() {
			m, t, err := datagen.Generate(datagen.Spec{
				Dims: in.dims, Records: in.blockRecords, Clusters: in.clusters,
				Seed: seed*1_000_003 + uint64(b) + 1,
			})
			ch <- block{m, t, err}
		}()
		return ch
	}
	w, err := diskio.Create(path, in.dims)
	if err != nil {
		return nil, err
	}
	var truth *datagen.Truth
	next := gen(0)
	for b := 0; b < in.blocks && err == nil; b++ {
		blk := <-next
		if b+1 < in.blocks {
			next = gen(b + 1) // buffered: never blocks if abandoned
		}
		if err = blk.err; err == nil {
			truth = blk.truth
			err = w.AppendChunk(blk.m.Values, blk.m.NumRecords())
		}
	}
	if err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return truth, nil
}

// shard is one rank's contiguous record range of the input file. When
// readNS is set, the time spent in its scanners' Next calls is added
// to it.
type shard struct {
	f      *diskio.File
	lo, hi int
	readNS *atomic.Int64
}

func (s *shard) Dims() int       { return s.f.Dims() }
func (s *shard) NumRecords() int { return s.hi - s.lo }
func (s *shard) Scan(chunk int) dataset.Scanner {
	sc := s.f.ScanRange(s.lo, s.hi, chunk)
	if s.readNS == nil {
		return sc
	}
	return &timedScanner{Scanner: sc, ns: s.readNS}
}

type timedScanner struct {
	dataset.Scanner
	ns *atomic.Int64
}

func (t *timedScanner) Next() ([]float64, int) {
	start := time.Now()
	c, n := t.Scanner.Next()
	t.ns.Add(int64(time.Since(start)))
	return c, n
}

// shards splits f into p contiguous ranges the way cmd/pmafia does.
func shards(f *diskio.File, p int, readNS *atomic.Int64) []dataset.Source {
	out := make([]dataset.Source, p)
	for r := 0; r < p; r++ {
		lo, hi := diskio.ShareBounds(f.NumRecords(), r, p)
		out[r] = &shard{f: f, lo: lo, hi: hi, readNS: readNS}
	}
	return out
}

// fitOnce opens path and runs one fit. The domains come from the
// engine's own min/max pass, so that layer is measured.
func fitOnce(path string, p int, rec *obs.Recorder, readNS *atomic.Int64) (*mafia.Result, *diskio.File, error) {
	f, err := diskio.Open(path)
	if err != nil {
		return nil, nil, err
	}
	f.SetRecorder(rec)
	res, err := mafia.RunParallel(shards(f, p, readNS), nil, fitConfig(rec), sp2.Config{Procs: p, Mode: sp2.Real})
	return res, f, err
}

// clusterKey fingerprints a result's cluster set: subspaces, dense
// units and the value bounds of every bin they use.
func clusterKey(res *mafia.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, c := range res.Clusters {
		h.Write(c.Dims)
		h.Write([]byte{0xff})
		h.Write(c.Units.Encode())
		for _, d := range c.Dims {
			for _, bin := range res.Grid.Dims[d].Bins {
				put(bin.Bounds.Lo)
				put(bin.Bounds.Hi)
			}
		}
	}
	return h.Sum64()
}

// clusterProblem describes how res fails to recover the subspace of
// every embedded cluster, or returns "".
func clusterProblem(res *mafia.Result, truth *datagen.Truth) string {
	q := quality.Evaluate(res, truth)
	if q.AllSubspacesExact && q.FoundClusters == q.TruthClusters {
		return ""
	}
	return fmt.Sprintf("found %d clusters for %d embedded, subspaces exact=%v",
		q.FoundClusters, q.TruthClusters, q.AllSubspacesExact)
}

// peakLiveHeap runs one more fit with the collector running after
// every few hundred kilobytes of allocation, and returns the largest
// live heap any cycle marked, in MB: the fit's peak live set. The heap
// in use during the timed fits depends on where their few GC cycles
// happen to fall, so it does not repeat from run to run; this does.
func peakLiveHeap(path string, p int) (float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	samples := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64 // written by the sampler goroutine, read after done
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(200 * time.Microsecond)
		defer t.Stop()
		for {
			metrics.Read(samples)
			peak = max(peak, samples[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	_, _, err := fitOnce(path, p, nil, nil)
	close(stop)
	<-done
	return float64(peak) / 1e6, err
}

func runFitScan(o *options, traced bool) (*outcome, error) {
	return runFit(o, traced, scanInput(o.short))
}

func runFitDeep(o *options, traced bool) (*outcome, error) {
	return runFit(o, traced, deepInput(o.short))
}

// runFit is the fit workload: generate the input, set up (open and fit
// once) setupReps times, then fit repeatedly until the window closes.
func runFit(o *options, traced bool, in fitInput) (*outcome, error) {
	oc := newOutcome()
	p := runtime.NumCPU()
	path := filepath.Join(o.workdir, "input.pmaf")
	truth, err := writeInput(path, in, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	runtime.GC()
	debug.FreeOSMemory()

	var want uint64
	check := func(res *mafia.Result, err error, what string) bool {
		oc.attempted++
		if err != nil {
			oc.failed++
			oc.failf("%s: %v", what, err)
			return false
		}
		if key := clusterKey(res); want == 0 {
			want = key
			if q := clusterProblem(res, truth); q != "" {
				oc.failed++
				oc.failf("%s: %s", what, q)
				return false
			}
		} else if key != want {
			oc.failed++
			oc.failf("%s: cluster set differs from the first fit's", what)
			return false
		}
		return true
	}

	var setups []float64
	records := 0
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		res, _, err := fitOnce(path, p, nil, nil)
		setups = append(setups, time.Since(start).Seconds())
		check(res, err, fmt.Sprintf("set-up fit %d", i))
		if res != nil {
			records = res.N
		}
	}
	oc.e2e["setup_s"] = median(setups)

	var fitSecs, fitSteal []float64
	lt := newLayerTally()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	end := deadline(o)
	for n := 0; n == 0 || time.Now().Before(end); n++ {
		var rec *obs.Recorder
		var readNS *atomic.Int64
		if traced {
			rec = obs.New()
			readNS = new(atomic.Int64)
		}
		cpu := readCPU()
		start := time.Now()
		res, f, err := fitOnce(path, p, rec, readNS)
		wall := time.Since(start).Seconds()
		fitSteal = append(fitSteal, stealSince(cpu))
		if !check(res, err, fmt.Sprintf("fit %d", n)) {
			fitSecs = append(fitSecs, math.Inf(1))
			continue
		}
		fitSecs = append(fitSecs, wall)
		if traced {
			lt.addFit(res, rec, f.StatsSnapshot(), readNS.Load(), wall)
			if time.Now().After(end) {
				if err := writeTrace(filepath.Join(o.workdir, "fit-trace.json"), rec); err != nil {
					return nil, err
				}
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	if oc.e2e["mem_mb"], err = peakLiveHeap(path, p); err != nil {
		return nil, fmt.Errorf("peak-heap fit: %w", err)
	}

	used := pick(fitSecs, quietQuarter(fitSteal))
	p50 := median(used)
	oc.e2e["p50_ms"] = 1e3 * p50
	oc.e2e["tail_ms"] = 1e3 * percentile(used, fitTail)
	oc.e2e["rec_per_s"] = float64(records) / p50
	// A fit rebuilds the model from all of its input, so the model
	// build metrics are the fit's own.
	oc.e2e["refit_ms"] = oc.e2e["p50_ms"]
	oc.e2e["ingest_rec_per_s"] = oc.e2e["rec_per_s"]
	oc.context["fits"] = len(fitSecs)
	oc.context["fits_used"] = len(used)
	oc.context["records"] = records
	oc.context["fit_ranks"] = p
	oc.context["tail_percentile"] = fmt.Sprintf("p%g", 100*fitTail)
	oc.context["tail_samples_beyond"] = int(float64(len(used)) * (1 - fitTail))

	if traced {
		lt.report(oc.layers)
		fits := float64(len(fitSecs))
		oc.layers["runtime.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / fits
		oc.layers["runtime.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
		oc.layers["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	}
	return oc, os.Remove(path)
}

// writeTrace writes rec as a Chrome trace_event file.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTally accumulates per-fit layer figures from the recorder, the
// machine report and the file's I/O counters; report gives the median
// over fits of each.
type layerTally struct {
	series map[string][]float64
}

func newLayerTally() *layerTally { return &layerTally{series: map[string][]float64{}} }

func (t *layerTally) add(name string, v float64) { t.series[name] = append(t.series[name], v) }

// spanPhases maps recorder span names to the per-layer metrics that
// report their time.
var spanPhases = map[string]string{
	"domains":   "mafia.domains_s",
	"histogram": "histogram.build_s",
	"generate":  "gen.generate_s",
	"dedup":     "unit.dedup_s",
	"populate":  "mafia.populate_s",
	"identify":  "mafia.identify_s",
	"clusters":  "cluster.assemble_s",
}

// addFit folds one fit into the tally. Phase times are the slowest
// rank's; the residual is the fit's wall time minus the slowest rank's
// top-level phases (children of the "run" span).
func (t *layerTally) addFit(res *mafia.Result, rec *obs.Recorder, io diskio.Stats, readNS int64, wall float64) {
	phase := map[string]float64{}
	topMax := 0.0
	for r := 0; r < rec.Ranks(); r++ {
		perRank := map[string]float64{}
		top := 0.0
		for _, s := range rec.Spans(r) {
			if s.Depth == 1 {
				top += s.Duration()
			}
			if m, ok := spanPhases[s.Name]; ok {
				perRank[m] += s.Duration()
			}
		}
		for m, v := range perRank {
			phase[m] = math.Max(phase[m], v)
		}
		topMax = math.Max(topMax, top)
	}
	for _, m := range spanPhases {
		t.add(m, phase[m])
	}
	t.add("fit.residual_s", wall-topMax)

	var raw, cdus, dense, cduRecords float64
	for _, l := range res.Levels {
		if l.K < 2 {
			continue
		}
		raw += float64(l.NcduRaw)
		cdus += float64(l.Ncdu)
		dense += float64(l.Ndu)
		cduRecords += float64(l.Ncdu) * float64(res.N)
	}
	t.add("gen.cdus_raw", raw)
	t.add("mafia.cdus", cdus)
	t.add("mafia.cdu_records", cduRecords)
	t.add("unit.keep_ratio", ratio(cdus, raw))
	t.add("mafia.dense_ratio", ratio(dense, cdus))
	t.add("grid.bins", float64(res.Grid.TotalBins()))
	t.add("cluster.count", float64(len(res.Clusters)))

	rep := res.Report
	t.add("sp2.collectives", float64(rep.Collectives))
	t.add("sp2.mb", float64(rep.BytesMoved)/1e6)
	wait := 0.0
	for _, ev := range rec.Collectives() {
		for _, a := range ev.Arrive {
			wait += ev.Start - a
		}
	}
	t.add("sp2.wait_s", wait)

	t.add("diskio.read_s", float64(readNS)/1e9)
	t.add("diskio.chunks", float64(io.Reads))
	t.add("diskio.mb", float64(io.BytesRead)/1e6)
}

func (t *layerTally) report(into map[string]float64) {
	for name, xs := range t.series {
		into[name] = median(xs)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
