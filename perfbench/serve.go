package main

// The serve workloads: closed-loop /assign traffic from this process
// against the shipped pmafiad binary, over at most nproc connections.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmafia/internal/assign"
	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// frameType is the Content-Type of the framed binary /assign protocol.
const frameType = "application/x-pmafia-assign"

// encodeFrame builds a PMAS frame: a 16-byte little-endian header
// (magic, version 1, dims, records) followed by the row-major float64
// values.
func encodeFrame(dims int, vals []float64) []byte {
	buf := make([]byte, 16+8*len(vals))
	copy(buf, "PMAS")
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint32(buf[8:], uint32(dims))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(vals)/dims))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[16+8*i:], math.Float64bits(v))
	}
	return buf
}

// probeFrames generates n frames of recs records each from the
// workload's cluster spec, so the served model labels most of them.
func probeFrames(dims, n, recs int, clusters []datagen.Cluster, seed uint64) ([][]float64, error) {
	total := n * recs
	m, _, err := datagen.Generate(datagen.Spec{
		Dims: dims, Records: total, Clusters: clusters, NoiseFraction: -1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = m.Values[i*recs*dims : (i+1)*recs*dims]
	}
	return out, nil
}

// labelHash fingerprints a label vector in the daemon's wire form
// (little-endian int32 per record).
func labelHash(labels []byte) uint64 {
	h := fnv.New64a()
	h.Write(labels)
	return h.Sum64()
}

// oracleLabels labels every record of vals with the scalar
// Result.AssignRecord, in the daemon's wire form.
func oracleLabels(res *mafia.Result, dims int, vals []float64) []byte {
	out := make([]byte, 4*(len(vals)/dims))
	for i := 0; i < len(vals)/dims; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(int32(res.AssignRecord(vals[i*dims:(i+1)*dims]))))
	}
	return out
}

// response is one /assign reply as recorded during a window.
type response struct {
	frame  int32
	lo, hi uint32 // model generations that could have served it
	hash   uint64
}

// loadResult is what one closed-loop connection measured.
type loadResult struct {
	rtts   []float64 // seconds; +Inf for a failed request
	resps  []response
	failed int64
	ids    []string // request IDs, traced runs only, aligned with rtts
	err    error
	// perSecond holds the round trips of the requests that ended in
	// each second of the loop.
	perSecond [][]float64
}

// assignLoop posts frames[(first + i*step) % len] to path in a closed
// loop, once and then for as long as more reports true. gens reports
// the lowest model generation that can serve a request sent now and
// the highest that can have served one answered now. Round trips are
// bucketed by the second since t0 they ended in.
func assignLoop(c *client, path string, frames [][]byte, first, step int, more func() bool, traced bool, conn int, t0 time.Time, gens func() (lo, hi uint32)) *loadResult {
	lr := &loadResult{}
	for i := 0; i == 0 || more(); i++ {
		f := (first + i*step) % len(frames)
		var id string
		if traced {
			id = "c" + strconv.Itoa(conn) + "-" + strconv.Itoa(i)
			lr.ids = append(lr.ids, id)
		}
		lo, _ := gens()
		start := time.Now()
		st, body, err := c.do("POST", path, frameType, frames[f], id)
		rtt := time.Since(start).Seconds()
		_, hi := gens()
		if err != nil || st != http.StatusOK {
			lr.failed++
			rtt = math.Inf(1)
			if lr.err == nil {
				lr.err = fmt.Errorf("POST %s: status %d, %v", path, st, err)
			}
		} else {
			lr.resps = append(lr.resps, response{frame: int32(f), lo: lo, hi: hi, hash: labelHash(body)})
		}
		lr.rtts = append(lr.rtts, rtt)
		sec := int(time.Since(t0) / time.Second)
		for len(lr.perSecond) <= sec {
			lr.perSecond = append(lr.perSecond, nil)
		}
		lr.perSecond[sec] = append(lr.perSecond[sec], rtt)
	}
	return lr
}

// verify counts responses whose labels match the oracle of no
// generation that could have served them.
func verify(resps []response, want func(gen uint32, frame int32) (uint64, bool)) int64 {
	var bad int64
	for _, r := range resps {
		ok := false
		for g := r.lo; g <= r.hi && !ok; g++ {
			h, known := want(g, r.frame)
			ok = known && h == r.hash
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// gateResponses runs the label gate and, as a self-check that the gate
// can fail, runs it again with one expected label of the first frame
// served corrupted in every generation; that pass must report failures.
// With corruptOnly the corrupted expectation is the gate itself.
func gateResponses(oc *outcome, resps []response, dims int, frames [][]float64, models map[uint32]*mafia.Result, corruptOnly bool) {
	want := map[uint32][]uint64{}
	corrupt := map[uint32][]uint64{}
	for g, res := range models {
		for f, vals := range frames {
			lab := oracleLabels(res, dims, vals)
			want[g] = append(want[g], labelHash(lab))
			if len(resps) > 0 && int32(f) == resps[0].frame {
				binary.LittleEndian.PutUint32(lab, binary.LittleEndian.Uint32(lab)+1)
			}
			corrupt[g] = append(corrupt[g], labelHash(lab))
		}
	}
	lookup := func(m map[uint32][]uint64) func(uint32, int32) (uint64, bool) {
		return func(g uint32, f int32) (uint64, bool) {
			hs, ok := m[g]
			if !ok {
				return 0, false
			}
			return hs[f], true
		}
	}
	if corruptOnly {
		want = corrupt
	}
	if bad := verify(resps, lookup(want)); bad > 0 {
		oc.failed += bad
		oc.failf("%d /assign responses match no generation that could have served them", bad)
	}
	caught := verify(resps, lookup(corrupt))
	oc.context["selfcheck_corrupt_failures"] = caught
	if len(resps) > 0 && caught == 0 {
		oc.failf("self-check: a corrupted expected label went undetected")
	}
}

// latencyMetrics fills p50_ms, tail_ms and rec_per_s from the round
// trips of the window, taken per whole second: each is the median over
// the quarter of the seconds with the least host steal (steal per
// second as measured) of that second's figure. tailQ is the percentile
// tail_ms reports. It returns the seconds used.
func latencyMetrics(oc *outcome, results []*loadResult, recsPerReq int, tailQ float64, steal []float64) map[int]bool {
	var merged [][]float64
	requests := 0
	for _, r := range results {
		requests += len(r.rtts)
		for i, xs := range r.perSecond {
			for len(merged) <= i {
				merged = append(merged, nil)
			}
			merged[i] = append(merged[i], xs...)
		}
	}
	if len(merged) > 1 {
		merged = merged[:len(merged)-1] // the last second is partial
	}
	secSteal := make([]float64, len(merged))
	for i := range secSteal {
		secSteal[i] = 100 // not measured: used last
		if i < len(steal) {
			secSteal[i] = steal[i]
		}
	}
	used := map[int]bool{}
	var rate, p50, tail, stealUsed []float64
	beyond := 0
	for _, i := range quietQuarter(secSteal) {
		xs := merged[i]
		used[i] = true
		ok := 0
		for _, x := range xs {
			if !math.IsInf(x, 1) {
				ok++
			}
		}
		rate = append(rate, float64(ok*recsPerReq))
		p50 = append(p50, percentile(xs, 0.5))
		tail = append(tail, percentile(xs, tailQ))
		stealUsed = append(stealUsed, secSteal[i])
		beyond += int(float64(len(xs)) * (1 - tailQ))
	}
	oc.e2e["rec_per_s"] = median(rate)
	oc.e2e["p50_ms"] = 1e3 * median(p50)
	oc.e2e["tail_ms"] = 1e3 * median(tail)
	oc.context["tail_percentile"] = fmt.Sprintf("p%g", 100*tailQ)
	oc.context["tail_samples_beyond_per_second"] = beyond / max(len(rate), 1)
	oc.context["requests"] = requests
	oc.context["seconds_measured"] = len(merged)
	oc.context["seconds_used"] = len(rate)
	oc.context["steal_pct_max_used"] = percentile(stealUsed, 1)
	oc.context["steal_pct_by_second"] = secSteal
	return used
}

// inSeconds returns the samples that ended in one of the seconds used,
// or all of them when none did.
func inSeconds(xs, at []float64, used map[int]bool) []float64 {
	var out []float64
	for i, x := range xs {
		if used[int(at[i])] {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return xs
	}
	return out
}

// daemonArgs are the flags a serve workload adds to the defaults; the
// traced pass also mounts pprof and writes the access log to a file.
func daemonArgs(traced bool, logPath string, extra ...string) []string {
	args := append([]string(nil), extra...)
	if traced {
		args = append(args, "-pprof", "-access-log", logPath)
	}
	return args
}

// smallInput is the training data of the model serve_small serves.
func smallInput(short bool) fitInput {
	in := fitInput{dims: 10, blocks: 2, blockRecords: 400_000, clusters: scanClusters()}
	if short {
		in.blocks, in.blockRecords = 1, 20_000
	}
	return in
}

// smallFrames and smallRecs shape serve_small's traffic: distinct
// 8-record frames, cycled.
const (
	smallFrames = 256
	smallRecs   = 8
)

// serveTail is the percentile tail_ms reports for /assign round trips.
// Hypervisor steal delays every request in flight while it lasts, so
// it reaches p99 at about 1% steal and p90 only at about 10%; on a
// shared 2-core host p99 and p95 did not repeat run to run, p90 did.
const serveTail = 0.90

func runServeSmall(o *options, traced bool) (*outcome, error) {
	oc := newOutcome()
	p := runtime.NumCPU()
	in := smallInput(o.short)
	trainPath := filepath.Join(o.workdir, "train.pmaf")
	truth, err := writeInput(trainPath, in, o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating training data: %w", err)
	}
	frameVals, err := probeFrames(in.dims, smallFrames, smallRecs, in.clusters, o.seed*7919+17)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, len(frameVals))
	for i, v := range frameVals {
		frames[i] = encodeFrame(in.dims, v)
	}
	runtime.GC()

	const name = "small.pmfm"
	logPath := filepath.Join(o.workdir, "serve_small-access.log")
	var d *daemonProc
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups, fits, fitSteal []float64
	var first []response
	var modelPath string
	var modelKey uint64
	records := 0
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		dir := filepath.Join(o.workdir, fmt.Sprintf("models-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		modelPath = filepath.Join(dir, name)
		cpu := readCPU()
		start := time.Now()
		res, _, err := fitOnce(trainPath, p, nil, nil)
		fits = append(fits, time.Since(start).Seconds())
		fitSteal = append(fitSteal, stealSince(cpu))
		if err != nil {
			return nil, fmt.Errorf("fitting the served model: %w", err)
		}
		if err := modelio.Save(modelPath, res); err != nil {
			return nil, err
		}
		d, err = startDaemon(o.daemon, daemonArgs(traced, logPath, "-models", dir)...)
		if err != nil {
			return nil, err
		}
		c := &client{addr: d.addr}
		r := assignLoop(c, "/assign?model="+name, frames[:1], 0, 1, never, false, 0, time.Now(), oneGen)
		c.close()
		setups = append(setups, time.Since(start).Seconds())
		oc.attempted += int64(len(r.rtts))
		oc.failed += r.failed
		if r.err != nil {
			oc.failf("set-up %d first label: %v", rep, r.err)
		}
		first = append(first, r.resps...)
		records = res.N
		modelKey = clusterKey(res)
		if q := clusterProblem(res, truth); q != "" {
			oc.failed++
			oc.failf("served model: %s", q)
		}
	}
	oc.e2e["setup_s"] = median(setups)

	model, err := modelio.Load(modelPath)
	if err != nil {
		return nil, err
	}

	var mon *monitor
	if traced {
		if mon, err = startMonitor(d); err != nil {
			return nil, err
		}
	}
	cpu0, self0 := d.cpuSeconds(), selfCPU()
	t0 := time.Now()
	steal := startStealMeter(t0)
	end := deadline(o)
	conns := p
	results := make([]*loadResult, conns)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{addr: d.addr}
			defer c.close()
			results[i] = assignLoop(c, "/assign?model="+name, frames, i, conns, before(end), traced, i, t0, oneGen)
		}(i)
	}
	wg.Wait()
	perSecondSteal := steal.end()
	cpu1, self1 := d.cpuSeconds(), selfCPU()
	oc.e2e["mem_mb"] = d.peakRSSMB()

	var rtts []float64
	var resps []response
	for _, r := range results {
		rtts = append(rtts, r.rtts...)
		resps = append(resps, r.resps...)
		oc.attempted += int64(len(r.rtts))
		oc.failed += r.failed
		if r.err != nil {
			oc.failf("%v", r.err)
		}
	}
	latencyMetrics(oc, results, smallRecs, serveTail, perSecondSteal)
	oc.context["connections"] = conns
	oc.context["records_per_request"] = smallRecs
	gateResponses(oc, append(first, resps...), in.dims, frameVals, map[uint32]*mafia.Result{1: model}, o.corruptLabel)

	if traced {
		reqs := int64(len(rtts))
		if err := mon.finish(oc.layers, reqs); err != nil {
			return nil, err
		}
		oc.layers["daemon.cpu_us_per_req"] = 1e6 * (cpu1 - cpu0) / float64(reqs)
		oc.layers["loadgen.cpu_us_per_req"] = float64((self1 - self0).Microseconds()) / float64(reqs)
	}
	d.stop()
	d = nil
	if traced {
		if err := joinAccessLog(oc.layers, logPath, results); err != nil {
			return nil, err
		}
	}

	// serve_small builds its model in each set-up; its model-build
	// metrics come from those fits and extraFits more taken after the
	// window, so they do not rest on one moment of the run: the median
	// of the quarter taken under the least steal.
	for i := 0; i < extraFits; i++ {
		cpu := readCPU()
		start := time.Now()
		res, _, err := fitOnce(trainPath, p, nil, nil)
		fits = append(fits, time.Since(start).Seconds())
		fitSteal = append(fitSteal, stealSince(cpu))
		oc.attempted++
		if err != nil || clusterKey(res) != modelKey {
			oc.failed++
			oc.failf("model fit %d after the window: cluster set differs from the served model's (%v)", i, err)
		}
	}
	fit := median(pick(fits, quietQuarter(fitSteal)))
	oc.e2e["refit_ms"] = 1e3 * fit
	oc.e2e["ingest_rec_per_s"] = float64(records) / fit
	oc.context["model_fits"] = len(fits)
	return oc, nil
}

// extraFits is how many serve_small model fits follow the window.
const extraFits = 6

// oneGen is the generation window of a model that never changes.
func oneGen() (uint32, uint32) { return 1, 1 }

// never stops an assignLoop after its first request.
func never() bool { return false }

// before keeps an assignLoop going until end.
func before(end time.Time) func() bool {
	return func() bool { return time.Now().Before(end) }
}

// monitor samples the daemon's GC activity through a connection of its
// own during a traced window.
type monitor struct {
	c    *client
	gc   *gcWindow
	stop chan struct{}
	done chan struct{}
	err  error
}

func startMonitor(d *daemonProc) (*monitor, error) {
	m := &monitor{c: &client{addr: d.addr}, stop: make(chan struct{}), done: make(chan struct{})}
	gc, err := startGCWindow(m.c)
	if err != nil {
		m.c.close()
		return nil, err
	}
	m.gc = gc
	go func() {
		defer close(m.done)
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if err := m.gc.sample(m.c); err != nil && m.err == nil {
					m.err = err
				}
			}
		}
	}()
	return m, nil
}

// finish takes a last sample and reports the runtime.* metrics.
func (m *monitor) finish(into map[string]float64, ops int64) error {
	close(m.stop)
	<-m.done
	defer m.c.close()
	if m.err != nil {
		return m.err
	}
	if err := m.gc.sample(m.c); err != nil {
		return err
	}
	m.gc.report(into, ops)
	return nil
}

// joinAccessLog reads the traced daemon's access log and fills the
// daemon-side layer metrics for the window's /assign requests.
func joinAccessLog(into map[string]float64, logPath string, results []*loadResult) error {
	lines, err := readAccessLog(logPath)
	if err != nil {
		return err
	}
	rtt := map[string]float64{}
	for _, r := range results {
		for i, id := range r.ids {
			if !math.IsInf(r.rtts[i], 1) {
				rtt[id] = r.rtts[i]
			}
		}
	}
	serveLayers(into, lines, rtt)
	return nil
}

// Ingest workload shape: the stream is seeded with seedChunks chunks
// before the first refit; the writer script then posts scriptChunks
// chunks, refitting after every refitEvery of them. Reads post
// readRecs-record frames.
type ingestShape struct {
	chunkRecs, seedChunks, scriptChunks, refitEvery int
	readFrames, readRecs                            int
}

func ingestShapeFor(short bool) ingestShape {
	if short {
		return ingestShape{chunkRecs: 2000, seedChunks: 5, scriptChunks: 4, refitEvery: 2, readFrames: 2, readRecs: 1024}
	}
	return ingestShape{chunkRecs: 2000, seedChunks: 100, scriptChunks: 48, refitEvery: 1, readFrames: 4, readRecs: 4096}
}

// ingestDims is the dimensionality of the ingest stream.
const ingestDims = 10

// writerLog is what the writer script measured.
type writerLog struct {
	chunkRTT, refitRTT, swapLag []float64
	chunkAt, refitAt            []float64         // when each ended, in seconds since the window start
	seconds                     float64           // from the window start to the script's end
	gens                        map[uint32][]byte // generation -> model file bytes
	failed, attempted           int64
	problems                    []string
}

func runServeIngest(o *options, traced bool) (*outcome, error) {
	oc := newOutcome()
	sh := ingestShapeFor(o.short)
	clusters := scanClusters()
	streamRecs := (sh.seedChunks + sh.scriptChunks) * sh.chunkRecs
	// datagen adds 10% noise on top of Records and shuffles, so the
	// first streamRecs records are a sample of the same mix.
	stream, _, err := datagen.Generate(datagen.Spec{
		Dims: ingestDims, Records: streamRecs, Clusters: clusters, Seed: o.seed*31337 + 5,
	})
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, sh.seedChunks+sh.scriptChunks)
	for i := range bodies {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, stream.Slice(i*sh.chunkRecs, (i+1)*sh.chunkRecs), nil); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	frameVals, err := probeFrames(ingestDims, sh.readFrames, sh.readRecs, clusters, o.seed*7919+29)
	if err != nil {
		return nil, err
	}
	frames := make([][]byte, len(frameVals))
	for i, v := range frameVals {
		frames[i] = encodeFrame(ingestDims, v)
	}
	runtime.GC()

	const name = "live.pmfm"
	assignPath := "/assign?model=" + name
	logPath := filepath.Join(o.workdir, "serve_ingest-access.log")
	var d *daemonProc
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	var first []response
	var modelPath string
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
			d = nil
		}
		dir := filepath.Join(o.workdir, fmt.Sprintf("models-%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		modelPath = filepath.Join(dir, name)
		start := time.Now()
		d, err = startDaemon(o.daemon, daemonArgs(traced, logPath,
			"-models", dir, "-ingest-model", name, "-ingest-dims", strconv.Itoa(ingestDims))...)
		if err != nil {
			return nil, err
		}
		c := &client{addr: d.addr}
		for i := 0; i < sh.seedChunks; i++ {
			if _, err := postIngest(c, "/ingest", bodies[i], ""); err != nil {
				c.close()
				return nil, fmt.Errorf("seeding the stream: %w", err)
			}
		}
		ack, err := postIngest(c, "/ingest?refit=1", nil, "")
		if err != nil || ack.Generation != 1 || !ack.Refitted {
			c.close()
			return nil, fmt.Errorf("first refit: %+v, %v", ack, err)
		}
		r := assignLoop(c, assignPath, frames[:1], 0, 1, never, false, 0, time.Now(), oneGen)
		c.close()
		setups = append(setups, time.Since(start).Seconds())
		oc.attempted += int64(len(r.rtts))
		oc.failed += r.failed
		if r.err != nil {
			oc.failf("set-up %d first label: %v", rep, r.err)
		}
		first = append(first, r.resps...)
	}
	oc.e2e["setup_s"] = median(setups)
	gen1, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}

	var mon *monitor
	if traced {
		if mon, err = startMonitor(d); err != nil {
			return nil, err
		}
	}
	// floor is the generation /models last showed (the daemon never
	// serves an older one to a request sent after that); ceil is the
	// newest generation that may be on disk. Refits come faster than
	// the daemon's swap checks, so a reply may come from any generation
	// between the two.
	var floor, ceil atomic.Uint32
	floor.Store(1)
	ceil.Store(1)
	gens := func() (uint32, uint32) { return floor.Load(), ceil.Load() }

	cpu0, self0 := d.cpuSeconds(), selfCPU()
	start := time.Now()
	steal := startStealMeter(start)
	end := deadline(o)
	// Reads go on past the window while the script is unfinished: the
	// daemon checks for new generations only when requests arrive.
	var reads *loadResult
	var wl *writerLog
	var scriptDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := &client{addr: d.addr}
		defer c.close()
		more := func() bool { return time.Now().Before(end) || !scriptDone.Load() }
		reads = assignLoop(c, assignPath, frames, 0, 1, more, traced, 0, start, gens)
	}()
	go func() {
		defer wg.Done()
		defer scriptDone.Store(true)
		c := &client{addr: d.addr}
		defer c.close()
		wl = runScript(c, sh, bodies[sh.seedChunks:], modelPath, name, start, end.Sub(start), traced, &floor, &ceil)
	}()
	wg.Wait()
	perSecondSteal := steal.end()
	oc.context["script_s"] = wl.seconds
	cpu1, self1 := d.cpuSeconds(), selfCPU()
	oc.e2e["mem_mb"] = d.peakRSSMB()
	wl.gens[1] = gen1

	oc.attempted += int64(len(reads.rtts)) + wl.attempted
	oc.failed += reads.failed + wl.failed
	oc.problems = append(oc.problems, wl.problems...)
	if reads.err != nil {
		oc.failf("%v", reads.err)
	}
	quiet := latencyMetrics(oc, []*loadResult{reads}, sh.readRecs, serveTail, perSecondSteal)
	oc.e2e["refit_ms"] = 1e3 * median(inSeconds(wl.refitRTT, wl.refitAt, quiet))
	oc.e2e["ingest_rec_per_s"] = float64(sh.chunkRecs) / median(inSeconds(wl.chunkRTT, wl.chunkAt, quiet))
	oc.context["connections"] = 2
	oc.context["records_per_request"] = sh.readRecs
	oc.context["refits"] = len(wl.refitRTT)
	oc.context["stream_records"] = streamRecs

	models := map[uint32]*mafia.Result{}
	for g, b := range wl.gens {
		res, meta, err := modelio.ReadMeta(bytes.NewReader(b))
		if err != nil || meta.Generation != uint64(g) {
			oc.failed++
			oc.failf("generation %d model file: meta %+v, %v", g, meta, err)
			continue
		}
		models[g] = res
	}
	gateResponses(oc, append(first, reads.resps...), ingestDims, frameVals, models, o.corruptLabel)

	// The last generation must label a probe set exactly as a batch fit
	// over the same records does. The records are the CSV bodies as
	// the daemon decoded them.
	all := &dataset.Matrix{D: ingestDims}
	var decode []float64
	for _, b := range bodies {
		t := time.Now()
		m, _, err := dataset.ReadCSV(bytes.NewReader(b))
		decode = append(decode, time.Since(t).Seconds())
		if err != nil {
			return nil, err
		}
		all.Values = append(all.Values, m.Values...)
	}
	last := uint32(1 + sh.scriptChunks/sh.refitEvery)
	var rec *obs.Recorder
	if traced {
		rec = obs.New()
	}
	fitStart := time.Now()
	batch, err := mafia.Run(all, mafia.Config{Recorder: rec})
	fitWall := time.Since(fitStart).Seconds()
	if err != nil {
		return nil, fmt.Errorf("batch fit of the stream: %w", err)
	}
	oc.attempted++
	if lastRes, ok := models[last]; !ok {
		oc.failed++
		oc.failf("generation %d was never written", last)
	} else {
		for f, vals := range frameVals {
			if !bytes.Equal(oracleLabels(lastRes, ingestDims, vals), oracleLabels(batch, ingestDims, vals)) {
				oc.failed++
				oc.failf("generation %d labels probe frame %d differently from a batch fit of the stream", last, f)
				break
			}
		}
	}

	if traced {
		ops := int64(len(reads.rtts)) + wl.attempted
		if err := mon.finish(oc.layers, ops); err != nil {
			return nil, err
		}
		oc.layers["daemon.cpu_us_per_req"] = 1e6 * (cpu1 - cpu0) / float64(ops)
		oc.layers["loadgen.cpu_us_per_req"] = float64((self1 - self0).Microseconds()) / float64(ops)
		m, err := (&client{addr: d.addr}).promValues()
		if err != nil {
			return nil, err
		}
		oc.layers["swap.swaps"] = m["pmafia_swap_swaps"]
		oc.layers["swap.errors"] = m["pmafia_swap_errors"]
		d.stop()
		d = nil
		if err := joinAccessLog(oc.layers, logPath, []*loadResult{reads}); err != nil {
			return nil, err
		}
		lines, err := readAccessLog(logPath)
		if err != nil {
			return nil, err
		}
		var appendS, refitS []float64
		for _, l := range lines {
			switch {
			case l.Route != "ingest" || l.Status != http.StatusOK:
			case strings.HasPrefix(l.ID, "chunk-"):
				appendS = append(appendS, l.Duration)
			case strings.HasPrefix(l.ID, "refit-"):
				refitS = append(refitS, l.Duration)
			}
		}
		oc.layers["ingest.append_ms"] = 1e3 * median(appendS)
		oc.layers["ingest.refit_server_ms"] = 1e3 * median(refitS)
		oc.layers["dataset.csv_decode_ms"] = 1e3 * median(decode)
		oc.layers["swap.lag_ms"] = 1e3 * median(wl.swapLag)
		load, compile, err := timeGenerations(o.workdir, wl.gens)
		if err != nil {
			return nil, err
		}
		oc.layers["modelio.load_ms"] = 1e3 * load
		oc.layers["assign.compile_ms"] = 1e3 * compile
		lt := newLayerTally()
		lt.addFit(batch, rec, diskio.Stats{}, 0, fitWall)
		lt.report(oc.layers)
	}
	return oc, nil
}

// ingestAck is the /ingest reply.
type ingestAck struct {
	Appended   int    `json:"appended"`
	Records    int    `json:"records"`
	Generation uint64 `json:"generation"`
	Refitted   bool   `json:"refitted"`
}

func postIngest(c *client, path string, body []byte, id string) (*ingestAck, error) {
	st, resp, err := c.do("POST", path, "text/csv", body, id)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, st, bytes.TrimSpace(resp))
	}
	var ack ingestAck
	if err := json.Unmarshal(resp, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// runScript is the serve_ingest writer: it posts the script's chunks on
// a schedule spread over the window, so its load is the same however
// fast the daemon is and every second of the window has writes in it,
// and after every refitEvery
// chunks runs a synchronous refit. Between its requests it polls
// /models while a written generation has not shown there yet, which
// raises floor and times the swap. Traced runs tag its requests with
// IDs the access log repeats ("chunk-i", "refit-i").
func runScript(c *client, sh ingestShape, bodies [][]byte, modelPath, name string, start time.Time, window time.Duration, traced bool, floor, ceil *atomic.Uint32) *writerLog {
	wl := &writerLog{gens: map[uint32][]byte{}}
	fail := func(format string, args ...any) {
		wl.failed++
		wl.problems = append(wl.problems, fmt.Sprintf(format, args...))
	}
	pending := map[uint32]time.Time{} // written, not yet shown: ack time
	watch := func(until time.Time) {
		for {
			if len(pending) > 0 {
				if g, err := c.modelGeneration(name); err == nil {
					for pg, at := range pending {
						if uint64(pg) <= g {
							wl.swapLag = append(wl.swapLag, time.Since(at).Seconds())
							delete(pending, pg)
						}
					}
					if uint32(g) > floor.Load() {
						floor.Store(uint32(g))
					}
				}
			}
			wait := time.Until(until)
			if wait <= 0 {
				return
			}
			if len(pending) > 0 && wait > swapPoll {
				wait = swapPoll
			}
			time.Sleep(wait)
		}
	}

	step := window / time.Duration(len(bodies))
	records := sh.seedChunks * sh.chunkRecs
	gen := uint32(1)
	for i, body := range bodies {
		watch(start.Add(time.Duration(i) * step))
		wl.attempted++
		var id, refitID string
		if traced {
			id, refitID = fmt.Sprintf("chunk-%d", i), fmt.Sprintf("refit-%d", i)
		}
		t := time.Now()
		ack, err := postIngest(c, "/ingest", body, id)
		rtt := time.Since(t).Seconds()
		wl.chunkAt = append(wl.chunkAt, time.Since(start).Seconds())
		if err != nil {
			wl.chunkRTT = append(wl.chunkRTT, math.Inf(1))
			fail("ingest chunk %d: %v", i, err)
			continue
		}
		wl.chunkRTT = append(wl.chunkRTT, rtt)
		records += sh.chunkRecs
		if ack.Appended != sh.chunkRecs || ack.Records != records {
			fail("ingest chunk %d acknowledged %d of %d records (%d in stream, want %d)", i, ack.Appended, sh.chunkRecs, ack.Records, records)
		}
		if (i+1)%sh.refitEvery != 0 {
			continue
		}
		wl.attempted++
		ceil.Store(gen + 1)
		t = time.Now()
		ack, err = postIngest(c, "/ingest?refit=1", nil, refitID)
		rtt = time.Since(t).Seconds()
		wl.refitAt = append(wl.refitAt, time.Since(start).Seconds())
		if err != nil || !ack.Refitted || ack.Generation != uint64(gen+1) {
			wl.refitRTT = append(wl.refitRTT, math.Inf(1))
			fail("refit after chunk %d: want generation %d, got %+v, %v", i, gen+1, ack, err)
			if ack != nil && ack.Generation > uint64(gen) {
				gen = uint32(ack.Generation)
				ceil.Store(gen)
			}
			continue
		}
		wl.refitRTT = append(wl.refitRTT, rtt)
		gen++
		pending[gen] = time.Now()
		if b, err := os.ReadFile(modelPath); err != nil {
			fail("reading generation %d: %v", gen, err)
		} else {
			wl.gens[gen] = b
		}
	}
	// The script ends once the last generation is served.
	for limit := time.Now().Add(10 * time.Second); len(pending) > 0 && time.Now().Before(limit); {
		watch(time.Now().Add(swapPoll))
	}
	if len(pending) > 0 {
		fail("%d generations not served 10s after the script's last refit", len(pending))
	}
	wl.seconds = time.Since(start).Seconds()
	return wl
}

// swapPoll is how often the writer polls /models while a generation it
// wrote has not shown there yet.
const swapPoll = 50 * time.Millisecond

// timeGenerations writes each generation's model bytes to a file and
// returns the median time of modelio.LoadMeta and of assign.New over
// them.
func timeGenerations(dir string, gens map[uint32][]byte) (load, compile float64, err error) {
	var loads, compiles []float64
	for g, b := range gens {
		path := filepath.Join(dir, fmt.Sprintf("gen-%d.pmfm", g))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return 0, 0, err
		}
		t := time.Now()
		res, _, err := modelio.LoadMeta(path)
		loads = append(loads, time.Since(t).Seconds())
		if err != nil {
			return 0, 0, err
		}
		t = time.Now()
		if _, err := assign.New(res.Grid, res.Clusters); err != nil {
			return 0, 0, err
		}
		compiles = append(compiles, time.Since(t).Seconds())
	}
	return median(loads), median(compiles), nil
}
