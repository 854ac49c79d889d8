// Package daemon is the model-serving daemon behind cmd/pmafiad: it
// serves saved clustering models (the .pmfm files cmd/pmafia writes
// with -save-model) for batch record assignment over HTTP, keeping an
// LRU-capped set of them compiled into assignment indexes. Resident
// models are freshness-checked against their files (Config.SwapCheck)
// and hot-swapped when a new generation lands on disk — see swap.go.
//
// Endpoints:
//
//	POST /assign?model=<name>.pmfm
//	     Body: CSV records (default; numeric columns, optional
//	     header), answered with JSON labels — or, with Content-Type
//	     application/x-pmafia-assign, one framed binary request (see
//	     frame.go) decoded straight into the batch kernel and
//	     answered with little-endian int32 labels. A label is the
//	     cluster index in the model's cluster list, -1 for outliers.
//	POST /ingest?refit=1
//	     (only with Config.IngestModel) streaming ingest: the body's
//	     records — CSV or one PMAS frame — are appended
//	     to the in-process ingest.Ingester, whose refits (triggered by
//	     record count or the refit query parameter) write the next
//	     generation of the ingest model into the model directory.
//	GET  /models      JSON listing of the model directory with
//	                  residency info and resident generations.
//	GET  /metrics     Prometheus text exposition (the shared obs
//	                  handler): request counters per route and status,
//	                  latency histograms per route and per model,
//	                  batch-size histograms, queue-wait histogram, and
//	                  the assign.* counters.
//	GET  /healthz     liveness probe.
//	GET  /readyz      readiness probe: 200 with model-cache state
//	                  while serving, 503 once draining so a fronting
//	                  load balancer rotates the node out.
//	GET  /debug/slow  the trace ring's slow class: up to
//	                  Config.TraceRing of the slowest requests seen so
//	                  far, slowest first, as access-log rows; each
//	                  row's id resolves at /debug/trace/{id}.
//	GET  /debug/trace       the retained request records as Chrome
//	                        trace_event JSON; /debug/trace/{id} serves
//	                        one record.
//	GET  /debug/profiles    (only with Config.ProfileDir) the
//	                        continuous-profiling index;
//	                        /debug/profiles/{name} serves a capture.
//	GET  /debug/pprof/* (only with Config.Pprof) net/http/pprof.
//
// Every request is instrumented (see obs.go): it carries an
// X-Request-ID (propagated from the client if sane, else generated)
// and builds one record with its wall-clock stage breakdown, from
// which it lands in the per-route and per-model latency histograms
// and status-code counters, emits exactly one structured JSON
// access-log line, and is offered to the trace ring (see trace.go),
// which always keeps errors and the slowest requests and, with
// TraceSample > 0, head-samples the rest — a handler panic is
// recovered with all of those invariants intact. Retained records are
// attached as OpenMetrics exemplars to the latency histograms at
// /metrics.
//
// The daemon bounds concurrent assignment work (Inflight), times out
// slow requests (Timeout), caps request bodies (MaxBody), and shuts
// down gracefully: Shutdown flips /readyz to 503, drains in-flight
// requests, and flushes the access log before returning.
package daemon

import (
	"container/list"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pmafia/internal/dataset"
	"pmafia/internal/ingest"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
	"pmafia/internal/obs/serve"
)

// queueWait bounds how long an /assign request may wait for an
// in-flight slot before the daemon sheds it with a 503.
const queueWait = 100 * time.Millisecond

// Config parameterizes the daemon.
type Config struct {
	Addr     string        // listen address (":0" picks a free port)
	ModelDir string        // directory the served models live in
	CacheCap int           // max models resident at once
	Timeout  time.Duration // per-request read/write timeout
	Inflight int           // max concurrent /assign requests
	MaxBody  int64         // request body cap in bytes
	// AccessLog receives one structured JSON line per request. nil
	// disables access logging. The daemon serializes writes and flushes
	// its buffer on Shutdown; closing the underlying file (if any) is
	// the caller's job.
	AccessLog io.Writer
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// TraceSample, when positive, head-samples every
	// 1/TraceSample-th request into the trace ring and turns on W3C
	// traceparent propagation. Non-2xx and tail-latency requests are
	// retained regardless.
	TraceSample float64
	// TraceRing caps each retention class of the trace ring (sampled,
	// error, slow); the slow class is what /debug/slow serves.
	TraceRing int
	// ProfileDir, when set, enables continuous profiling: periodic CPU
	// and heap pprof captures land there, pruned to ProfileKeep files
	// per kind, indexed at /debug/profiles.
	ProfileDir string
	// ProfileInterval is the sleep between capture cycles.
	ProfileInterval time.Duration
	// ProfileCPU is the length of each CPU capture.
	ProfileCPU time.Duration
	// ProfileKeep bounds the on-disk captures retained per kind.
	ProfileKeep int
	// SwapCheck is the minimum interval between freshness checks of a
	// resident model against its file on disk. A changed file (a new
	// generation written by a refit, or any atomic overwrite) is
	// reloaded in the background and hot-swapped in: in-flight requests
	// finish on the generation they started with, new requests see the
	// new one. Zero means the 1s default; negative disables checking,
	// pinning each model until LRU eviction.
	SwapCheck time.Duration
	// IngestModel, when non-empty, enables streaming ingest: POST
	// /ingest appends records to an in-process ingest.Ingester whose
	// refits write generation-stamped models to this file name inside
	// ModelDir — which the swap machinery then picks up, so the daemon
	// keeps serving while models refit and swap underneath it.
	IngestModel string
	// IngestDims is the record dimensionality of the ingest stream
	// (required when IngestModel is set).
	IngestDims int
	// RefitEvery triggers a background refit whenever that many records
	// have arrived since the last refit snapshot; 0 refits only on
	// explicit POST /ingest?refit=1 triggers.
	RefitEvery int
}

func (c *Config) fill() {
	if c.CacheCap < 1 {
		c.CacheCap = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Inflight < 1 {
		c.Inflight = 8
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 30
	}
	if c.TraceRing < 1 {
		c.TraceRing = 64
	}
	if c.ProfileInterval <= 0 {
		c.ProfileInterval = time.Minute
	}
	if c.ProfileCPU <= 0 {
		c.ProfileCPU = 5 * time.Second
	}
	if c.ProfileCPU > c.ProfileInterval {
		c.ProfileCPU = c.ProfileInterval
	}
	if c.ProfileKeep < 1 {
		c.ProfileKeep = 16
	}
	if c.SwapCheck == 0 {
		c.SwapCheck = time.Second
	}
}

// Daemon serves saved models for batch assignment.
type Daemon struct {
	cfg Config
	rec *obs.Recorder
	sem chan struct{} // bounds in-flight /assign work

	alog     *accessLog
	idSeq    atomic.Int64
	idPrefix string
	draining atomic.Bool

	traces      *obs.TraceRing
	traceStride int64 // head-sample every traceStride-th request; 0: none
	traceSeq    atomic.Int64
	prof        *profiler // nil unless ProfileDir is set

	ing   *ingest.Ingester // nil unless IngestModel is set
	swaps sync.WaitGroup   // in-flight background swap checks

	mu    sync.Mutex
	cache map[string]*list.Element // resolved path -> entry
	lru   *list.List               // front = most recent; values are *cacheSlot

	ln   net.Listener
	srv  *http.Server
	done chan struct{}
}

type cacheSlot struct {
	path string
	m    *model
}

// New builds a daemon and binds its listener; call Serve to start
// handling requests.
func New(cfg Config) (*Daemon, error) {
	cfg.fill()
	if cfg.ModelDir == "" {
		return nil, errors.New("pmafiad: a model directory is required")
	}
	st, err := os.Stat(cfg.ModelDir)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("pmafiad: %s is not a directory", cfg.ModelDir)
	}
	d := &Daemon{
		cfg:      cfg,
		rec:      obs.New(),
		sem:      make(chan struct{}, cfg.Inflight),
		alog:     newAccessLog(cfg.AccessLog),
		traces:   obs.NewTraceRing(cfg.TraceRing),
		idPrefix: idPrefix(),
		cache:    make(map[string]*list.Element),
		lru:      list.New(),
		done:     make(chan struct{}),
	}
	if cfg.TraceSample > 0 {
		d.traceStride = int64(math.Round(1 / cfg.TraceSample))
		if d.traceStride < 1 {
			d.traceStride = 1
		}
	}
	if cfg.ProfileDir != "" {
		d.prof, err = newProfiler(cfg.ProfileDir, cfg.ProfileInterval, cfg.ProfileCPU, cfg.ProfileKeep, d.rec)
		if err != nil {
			return nil, fmt.Errorf("pmafiad: profile dir: %w", err)
		}
	}
	if cfg.IngestModel != "" {
		if strings.Contains(cfg.IngestModel, "..") || strings.ContainsAny(cfg.IngestModel, `/\`) {
			return nil, fmt.Errorf("pmafiad: ingest model name %q escapes the model directory", cfg.IngestModel)
		}
		d.ing, err = ingest.New(cfg.IngestDims, ingest.Config{
			Dir:        cfg.ModelDir,
			Model:      cfg.IngestModel,
			RefitEvery: cfg.RefitEvery,
			Recorder:   d.rec,
		})
		if err != nil {
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.instrument("healthz", d.healthz))
	mux.HandleFunc("/readyz", d.instrument("readyz", d.readyz))
	mux.HandleFunc("/models", d.instrument("models", d.models))
	mux.HandleFunc("/assign", d.instrument("assign", d.assign))
	mux.HandleFunc("/ingest", d.instrument("ingest", d.ingestHandler))
	mux.HandleFunc("/debug/slow", d.instrument("debug_slow", d.debugSlow))
	mux.HandleFunc("/debug/trace", d.instrument("debug_trace", d.debugTrace))
	mux.HandleFunc("/debug/trace/", d.instrument("debug_trace", d.debugTrace))
	mux.HandleFunc("/debug/profiles", d.instrument("debug_profiles", d.debugProfiles))
	mux.HandleFunc("/debug/profiles/", d.instrument("debug_profiles", d.debugProfiles))
	// The telemetry exposition is the shared obs handler; the daemon's
	// request histograms and counters surface there alongside any
	// engine counters.
	mux.Handle("/metrics", d.instrument("metrics", serve.Handler(d.rec).ServeHTTP))
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	d.srv = &http.Server{
		Handler:           mux,
		ReadTimeout:       cfg.Timeout,
		WriteTimeout:      cfg.Timeout,
		ReadHeaderTimeout: 5 * time.Second,
	}
	d.ln, err = net.Listen("tcp", cfg.Addr)
	if err != nil {
		d.prof.close()
		return nil, err
	}
	return d, nil
}

// Addr returns the bound listen address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Serve runs the server in a background goroutine.
func (d *Daemon) Serve() {
	go func() {
		defer close(d.done)
		d.srv.Serve(d.ln) // http.ErrServerClosed on shutdown
	}()
}

// Shutdown drains the daemon gracefully: /readyz flips to 503 first
// (a fronting load balancer sees the node as gone while in-flight
// requests finish), then the listener closes, in-flight requests
// drain, background swap checks and any in-flight refit finish, the
// serve goroutine exits, the profiler stops, and the access log is
// flushed.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.draining.Store(true)
	err := d.srv.Shutdown(ctx)
	<-d.done
	d.swaps.Wait()
	if d.ing != nil {
		d.ing.Close()
	}
	d.prof.close()
	if ferr := d.alog.flush(); err == nil {
		err = ferr
	}
	return err
}

// resolve maps a request's model name to a path inside the model
// directory, rejecting traversal outside it.
func (d *Daemon) resolve(name string) (string, error) {
	if name == "" {
		return "", errors.New("missing ?model=")
	}
	if strings.Contains(name, "..") || strings.ContainsAny(name, `/\`) {
		return "", fmt.Errorf("model name %q escapes the model directory", name)
	}
	return filepath.Join(d.cfg.ModelDir, name), nil
}

// get returns the current compiled generation of the cached (or
// freshly loaded) model for path, updating the LRU order and the
// hit/miss counters. On a hit it also schedules a rate-limited
// freshness check, so an overwritten file is picked up and hot-swapped
// instead of staying pinned until eviction; the returned generation is
// the one this request serves end to end regardless of any swap.
func (d *Daemon) get(path string) (*compiled, error) {
	d.mu.Lock()
	if el, ok := d.cache[path]; ok {
		d.lru.MoveToFront(el)
		d.mu.Unlock()
		d.rec.Add(0, obs.CtrAssignCacheHit, 1)
		m := el.Value.(*cacheSlot).m
		cx, err := m.ensure()
		if err != nil {
			d.evict(path, el)
			return nil, err
		}
		d.freshen(m)
		return cx, nil
	}
	m := newModel(path)
	el := d.lru.PushFront(&cacheSlot{path: path, m: m})
	d.cache[path] = el
	for d.lru.Len() > d.cfg.CacheCap {
		old := d.lru.Back()
		d.lru.Remove(old)
		delete(d.cache, old.Value.(*cacheSlot).path)
	}
	d.mu.Unlock()
	d.rec.Add(0, obs.CtrAssignCacheMiss, 1)

	cx, err := m.ensure()
	if err != nil {
		d.evict(path, el)
		return nil, err
	}
	m.lastCheck.Store(time.Now().UnixNano())
	return cx, nil
}

// evict drops a failed load from the cache so the entry is not pinned:
// the file may be replaced (atomically, by modelio.Save) and should
// reload. The identity check keeps a racing re-insert for the same
// path alive.
func (d *Daemon) evict(path string, el *list.Element) {
	d.mu.Lock()
	if el2, ok := d.cache[path]; ok && el2 == el {
		d.lru.Remove(el)
		delete(d.cache, path)
	}
	d.mu.Unlock()
}

// residentModels counts cache entries whose load completed
// successfully — the model-cache state /readyz reports.
func (d *Daemon) residentModels() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, el := range d.cache {
		if el.Value.(*cacheSlot).m.loaded() {
			n++
		}
	}
	return n
}

func (d *Daemon) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyState is the /readyz body.
type readyState struct {
	Ready          bool `json:"ready"`
	Draining       bool `json:"draining"`
	ModelsResident int  `json:"models_resident"`
}

// readyz is the readiness probe: 200 while the daemon accepts work,
// 503 once draining. The body reflects the model cache, so a fleet
// scheduler can prefer warm nodes.
func (d *Daemon) readyz(w http.ResponseWriter, _ *http.Request) {
	st := readyState{
		Draining:       d.draining.Load(),
		ModelsResident: d.residentModels(),
	}
	st.Ready = !st.Draining
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(st)
}

// modelInfo is one row of the /models listing.
type modelInfo struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Loaded bool   `json:"loaded"`
	// Filled only when the model is resident.
	Dims     int    `json:"dims,omitempty"`
	Clusters int    `json:"clusters,omitempty"`
	Records  int    `json:"records,omitempty"`
	Gen      uint64 `json:"generation,omitempty"`
}

func (d *Daemon) models(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ents, err := os.ReadDir(d.cfg.ModelDir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resident := map[string]*model{}
	d.mu.Lock()
	for path, el := range d.cache {
		resident[path] = el.Value.(*cacheSlot).m
	}
	d.mu.Unlock()
	out := []modelInfo{}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".pmfm") {
			continue
		}
		info := modelInfo{Name: e.Name()}
		if fi, err := e.Info(); err == nil {
			info.Bytes = fi.Size()
		}
		if m, ok := resident[filepath.Join(d.cfg.ModelDir, e.Name())]; ok {
			if cx := m.cur.Load(); cx != nil {
				info.Loaded = true
				info.Dims = cx.ix.Dims()
				info.Clusters = cx.ix.Clusters()
				info.Records = cx.n
				info.Gen = cx.gen
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// assignResponse is the JSON reply for CSV requests.
type assignResponse struct {
	Model    string  `json:"model"`
	Records  int     `json:"records"`
	Outliers int     `json:"outliers"`
	Labels   []int32 `json:"labels"`
}

// assign labels the records in the request body against the named
// model with one AssignChunk call. A text/csv body (the default)
// yields a JSON response; a PMAS frame yields a stream of
// little-endian int32 labels.
func (d *Daemon) assign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t := traceOf(r.Context())
	// Shed load while the client is still listening: a brief queue wait
	// absorbs bursts, then 503 instead of stalling until ReadTimeout.
	enqueued := time.Now()
	queue := time.NewTimer(queueWait)
	defer queue.Stop()
	select {
	case d.sem <- struct{}{}:
		defer func() { <-d.sem }()
		admitted := time.Now()
		t.Mark(obs.StageQueue, enqueued, admitted)
		d.rec.Observe(0, obs.HistAssignQueueSeconds, admitted.Sub(enqueued).Seconds())
	case <-queue.C:
		http.Error(w, "server busy", http.StatusServiceUnavailable)
		return
	case <-r.Context().Done():
		// Client gave up while queued; nothing useful to write.
		return
	}
	path, err := d.resolve(r.URL.Query().Get("model"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cx, err := d.get(path)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			code = http.StatusNotFound
		} else if errors.Is(err, modelio.ErrCorrupt) {
			code = http.StatusUnprocessableEntity
		}
		http.Error(w, err.Error(), code)
		return
	}
	// Only a loaded model names per-model series: the name comes from
	// the client, so a miss must not mint one.
	t.Model = filepath.Base(path)

	decodeStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, d.cfg.MaxBody)
	frameIn := strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeFrame)
	vals, err := decodeRecords(body, frameIn, cx.ix.Dims(), d.cfg.MaxBody)
	decodeStage := obs.StageDecode
	if frameIn {
		decodeStage = obs.StageFrameDecode
	}
	t.Mark(decodeStage, decodeStart, time.Now())
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) || errors.Is(err, ErrFrameTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	if frameIn {
		d.rec.Add(0, obs.CtrAssignFrames, 1)
	}
	assignStart := time.Now()
	labels := make([]int32, len(vals)/cx.ix.Dims())
	err = cx.ix.AssignChunk(vals, labels, cx.ix.Scratch())
	t.Mark(obs.StageKernel, assignStart, time.Now())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	t.Records = len(labels)
	d.rec.Add(0, obs.CtrAssignRecords, int64(len(labels)))
	d.rec.Add(0, obs.CtrAssignBatches, 1)

	encodeStart := time.Now()
	defer func() { t.Mark(obs.StageEncode, encodeStart, time.Now()) }()
	if frameIn {
		w.Header().Set("Content-Type", "application/octet-stream")
		buf := make([]byte, 4*len(labels))
		for i, l := range labels {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(l))
		}
		w.Write(buf)
		return
	}
	resp := assignResponse{
		Model:   t.Model,
		Records: len(labels),
		Labels:  labels,
	}
	for _, l := range labels {
		if l < 0 {
			resp.Outliers++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// decodeRecords reads a request body of dims-dimensional records, the
// shared decoder of /assign and /ingest: one PMAS frame when frame is
// set, CSV otherwise. The frame decoder checks the header's dims; a
// CSV body must have exactly dims columns, because the batch kernel
// only sees a flat value slice and would otherwise relabel a narrower
// body as fewer, wider records.
func decodeRecords(r io.Reader, frame bool, dims int, maxBytes int64) ([]float64, error) {
	if frame {
		return decodeFrame(r, dims, maxBytes)
	}
	m, _, err := dataset.ReadCSV(r)
	if err != nil {
		return nil, err
	}
	if m.D != dims {
		return nil, fmt.Errorf("body has %d-column records, want %d", m.D, dims)
	}
	return m.Values, nil
}
