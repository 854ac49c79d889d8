package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// fitModel fits a small data set and saves it under dir, returning the
// model name, the fitted result, and the training data.
func fitModel(t *testing.T, dir, name string, seed uint64) (*mafia.Result, *dataset.Matrix) {
	t.Helper()
	ext := []dataset.Range{{Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}}
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     5,
		Records:  2000,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{0, 2, 4}, ext, 0)},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := modelio.Save(filepath.Join(dir, name), res); err != nil {
		t.Fatal(err)
	}
	return res, m
}

// startDaemon binds a daemon on a free port and returns its base URL
// plus a shutdown func.
func startDaemon(t *testing.T, cfg Config) (*Daemon, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Serve()
	return d, "http://" + d.Addr()
}

func csvBody(m *dataset.Matrix) []byte {
	var b bytes.Buffer
	for i := 0; i < m.NumRecords(); i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func postAssign(t *testing.T, base, model, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/assign?model="+model, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestAssignMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	res, m := fitModel(t, dir, "a.pmfm", 1)
	d, base := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	want, err := res.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}

	// CSV in, JSON out.
	resp, raw := postAssign(t, base, "a.pmfm", "text/csv", csvBody(m))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var ar assignResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Records != len(want) {
		t.Fatalf("%d records labeled, want %d", ar.Records, len(want))
	}
	for i := range want {
		if ar.Labels[i] != want[i] {
			t.Fatalf("record %d: daemon %d, oracle %d", i, ar.Labels[i], want[i])
		}
	}
}

func TestAssignErrors(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 2)
	if err := os.WriteFile(filepath.Join(dir, "bad.pmfm"), []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, base := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	resp, _ := postAssign(t, base, "missing.pmfm", "text/csv", []byte("1,2,3,4,5\n"))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing model: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postAssign(t, base, "..%2Fescape.pmfm", "text/csv", []byte("1\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("traversal: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postAssign(t, base, "bad.pmfm", "text/csv", []byte("1,2,3,4,5\n"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("corrupt model: status %d, want 422", resp.StatusCode)
	}
	// Wrong dimensionality is a client error.
	resp, raw := postAssign(t, base, "a.pmfm", "text/csv", []byte("1,2\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dims mismatch: status %d (%s), want 400", resp.StatusCode, raw)
	}
	// Five 2-column rows hold as many values as two 5-dim records; the
	// width check must reject them rather than relabel them as two.
	resp, raw = postAssign(t, base, "a.pmfm", "text/csv", bytes.Repeat([]byte("1,2\n"), 5))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("5x2 CSV on a 5-dim model: status %d (%s), want 400", resp.StatusCode, raw)
	}
	// Raw float64 bodies are not a request encoding: they reach the
	// CSV decoder and fail there.
	bin := make([]byte, 8*5)
	for i := 0; i < 5; i++ {
		binary.LittleEndian.PutUint64(bin[8*i:], math.Float64bits(float64(i)))
	}
	resp, raw = postAssign(t, base, "a.pmfm", "application/octet-stream", bin)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("octet-stream body: status %d (%s), want 400", resp.StatusCode, raw)
	}
	// GET on /assign is rejected.
	getResp, err := http.Get(base + "/assign?model=a.pmfm")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /assign: status %d, want 405", getResp.StatusCode)
	}
}

func TestModelsAndCacheLRU(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 3)
	fitModel(t, dir, "b.pmfm", 4)
	fitModel(t, dir, "c.pmfm", 5)
	d, base := startDaemon(t, Config{ModelDir: dir, CacheCap: 2})
	defer d.Shutdown(context.Background())

	row := []byte("1,2,3,4,5\n")
	for _, name := range []string{"a.pmfm", "b.pmfm", "c.pmfm", "a.pmfm"} {
		if resp, raw := postAssign(t, base, name, "text/csv", row); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, raw)
		}
	}
	// Cap 2: a evicted by c, so the fourth request misses again.
	hits, misses := counterPair(t, base)
	if misses != 4 || hits != 0 {
		t.Errorf("hit/miss = %d/%d after a,b,c,a with cap 2; want 0/4", hits, misses)
	}
	if resp, _ := postAssign(t, base, "a.pmfm", "text/csv", row); resp.StatusCode != http.StatusOK {
		t.Fatal("re-assign against a failed")
	}
	if hits, _ := counterPair(t, base); hits != 1 {
		t.Errorf("hits = %d after repeat, want 1", hits)
	}

	resp, err := http.Get(base + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []modelInfo
	err = json.NewDecoder(resp.Body).Decode(&infos)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("/models lists %d entries, want 3", len(infos))
	}
	loaded := 0
	for _, in := range infos {
		if in.Loaded {
			loaded++
			if in.Dims != 5 {
				t.Errorf("%s: dims %d, want 5", in.Name, in.Dims)
			}
		}
	}
	if loaded != 2 {
		t.Errorf("%d models resident, cache cap is 2", loaded)
	}
}

// TestCacheHitDuringPendingLoad reproduces the publish-before-load
// window: a cache entry is visible before its loader has run. A hit in
// that window must run the load itself (or block on it), never return
// an unloaded model — the old sync.Once code once consumed the Once
// with a no-op and came back with a nil index and a nil error.
func TestCacheHitDuringPendingLoad(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 8)
	d, _ := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	path := filepath.Join(dir, "a.pmfm")
	m := newModel(path)
	d.mu.Lock()
	d.cache[path] = d.lru.PushFront(&cacheSlot{path: path, m: m})
	d.mu.Unlock()

	got, err := d.get(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ix == nil {
		t.Fatal("cache hit returned a model that was never loaded")
	}
	// A pending entry must not be pinned unloadable: after the hit it
	// serves /models info.
	if !m.loaded() {
		t.Error("model not marked loaded after a hit-driven load")
	}
}

// TestAssignShedsLoad verifies an overloaded daemon returns 503 while
// the client is still connected instead of queueing until a timeout.
func TestAssignShedsLoad(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 9)
	d, base := startDaemon(t, Config{ModelDir: dir, Inflight: 1})
	defer d.Shutdown(context.Background())

	d.sem <- struct{}{} // occupy the only in-flight slot
	defer func() { <-d.sem }()
	start := time.Now()
	resp, raw := postAssign(t, base, "a.pmfm", "text/csv", []byte("1,2,3,4,5\n"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, raw)
	}
	if wait := time.Since(start); wait > 10*queueWait {
		t.Errorf("503 took %v; load shedding should answer in about %v", wait, queueWait)
	}
}

// TestAssignBodyTooLarge verifies an oversized body maps to 413, not a
// generic 400.
func TestAssignBodyTooLarge(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 10)
	d, base := startDaemon(t, Config{ModelDir: dir, MaxBody: 64})
	defer d.Shutdown(context.Background())

	// Keep the oversize modest so the request fits in socket buffers
	// and the client always reads the reply cleanly.
	big := bytes.Repeat([]byte("1,2,3,4,5\n"), 20)
	resp, raw := postAssign(t, base, "a.pmfm", "text/csv", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("csv: status %d (%s), want 413", resp.StatusCode, raw)
	}
}

// counterPair scrapes /metrics for the assign cache counters.
func counterPair(t *testing.T, base string) (hits, misses int64) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, "pmafia_assign_cache_hit %d", &v); err == nil {
			hits = v
		}
		if _, err := fmt.Sscanf(line, "pmafia_assign_cache_miss %d", &v); err == nil {
			misses = v
		}
	}
	return hits, misses
}

// TestRequestIDAndAccessLog locks the per-request contracts: every
// response carries an X-Request-ID (the client's, if it sent one),
// and every request emits exactly one JSON access-log line carrying
// that ID, the route, the model, the record count, and the status.
func TestRequestIDAndAccessLog(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 11)
	var logBuf syncBuffer
	d, base := startDaemon(t, Config{ModelDir: dir, AccessLog: &logBuf})

	// A request with a caller-provided ID propagates it.
	req, err := http.NewRequest(http.MethodPost, base+"/assign?model=a.pmfm", bytes.NewReader(csvBody(m)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	req.Header.Set("X-Request-ID", "caller-chose-this")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chose-this" {
		t.Errorf("X-Request-ID = %q, want the caller's ID propagated", got)
	}

	// Requests without an ID get distinct generated ones.
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-ID")
		if id == "" {
			t.Fatal("response without an X-Request-ID")
		}
		if ids[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		ids[id] = true
	}

	// Shutdown flushes the buffered log; then: one line per request.
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d access-log lines for 4 requests:\n%s", len(lines), logBuf.String())
	}
	var recs []accessRecord
	for _, line := range lines {
		var rec accessRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access-log line is not JSON: %v\n%s", err, line)
		}
		recs = append(recs, rec)
	}
	assignRec := recs[0]
	if assignRec.Route != "assign" || assignRec.ID != "caller-chose-this" ||
		assignRec.Model != "a.pmfm" || assignRec.Records != m.NumRecords() ||
		assignRec.Status != 200 || assignRec.DurationSeconds <= 0 {
		t.Errorf("assign access record = %+v", assignRec)
	}
	for _, rec := range recs[1:] {
		if rec.Route != "healthz" || rec.Status != 200 || !ids[rec.ID] {
			t.Errorf("healthz access record = %+v", rec)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// access log in tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestMetricsHistograms drives traffic and asserts /metrics exposes
// per-route and per-model Prometheus histograms plus the labeled
// status-counter family.
func TestMetricsHistograms(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 12)
	d, base := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	body := csvBody(m)
	for i := 0; i < 3; i++ {
		if resp, raw := postAssign(t, base, "a.pmfm", "text/csv", body); resp.StatusCode != 200 {
			t.Fatalf("assign: %d: %s", resp.StatusCode, raw)
		}
	}
	postAssign(t, base, "missing.pmfm", "text/csv", []byte("1,2,3,4,5\n"))

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"# TYPE pmafia_http_request_seconds histogram",
		`pmafia_http_request_seconds_bucket{route="assign",le="+Inf"} 4`,
		`pmafia_http_request_seconds_count{route="assign"} 4`,
		"# TYPE pmafia_model_assign_seconds histogram",
		`pmafia_model_assign_seconds_count{model="a.pmfm"} 3`,
		"# TYPE pmafia_model_batch_records histogram",
		`pmafia_model_batch_records_bucket{model="a.pmfm",le="10000"} 3`,
		"# TYPE pmafia_http_requests_total counter",
		`pmafia_http_requests_total{route="assign",code="200"} 3`,
		`pmafia_http_requests_total{route="assign",code="404"} 1`,
		"# TYPE pmafia_assign_queue_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The merged snapshot the load harness reads agrees with /metrics.
	h := d.rec.Histogram(obs.HistRouteSeconds("assign"))
	if h == nil || h.Count() != 4 {
		t.Errorf("Recorder histogram count = %v, want 4", h.Count())
	}
	// The missing-model request never gets a model label, so the model
	// histograms count exactly the successful assigns.
	if rh := d.rec.Histogram(obs.HistModelRecords("a.pmfm")); rh == nil || rh.Count() != 3 {
		t.Error("model records histogram should have exactly the 3 successful batches")
	}
}

// TestMissingModelsMintNoSeries: requests for models that do not
// exist must not create per-model series — the names come from the
// client, so each distinct miss would otherwise mint a histogram (and
// a name with a 0xFF byte would render as an invalid \x escape).
func TestMissingModelsMintNoSeries(t *testing.T) {
	dir := t.TempDir()
	d, base := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	for i := 0; i < 20; i++ {
		if resp, _ := postAssign(t, base, fmt.Sprintf("nope%d.pmfm", i), "text/csv", []byte("1\n")); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing model %d: status %d, want 404", i, resp.StatusCode)
		}
	}
	if resp, _ := postAssign(t, base, "nope%FF.pmfm", "text/csv", []byte("1\n")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing 0xFF model: status %d, want 404", resp.StatusCode)
	}
	for name := range d.rec.Histograms() {
		if strings.HasPrefix(name, "model.") {
			t.Errorf("missing model minted histogram %q", name)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(raw, []byte("model=")) {
		t.Errorf("/metrics carries a model= series after only missing-model requests:\n%s", raw)
	}
}

// TestDebugSlow checks /debug/slow, the trace ring's slow class:
// access-log rows arrive sorted slowest first, carry timing
// breakdowns, and stay capped at TraceRing.
func TestDebugSlow(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 13)
	d, base := startDaemon(t, Config{ModelDir: dir, TraceRing: 3})
	defer d.Shutdown(context.Background())

	body := csvBody(m)
	for i := 0; i < 5; i++ {
		postAssign(t, base, "a.pmfm", "text/csv", body)
	}
	resp, err := http.Get(base + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var entries []accessRecord
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("/debug/slow is not JSON: %v\n%s", err, raw)
	}
	if len(entries) != 3 {
		t.Fatalf("/debug/slow has %d entries with TraceRing=3 after 5 requests", len(entries))
	}
	for i, e := range entries {
		if i > 0 && e.DurationSeconds > entries[i-1].DurationSeconds {
			t.Errorf("ring not sorted slowest-first at %d: %v after %v", i, e.DurationSeconds, entries[i-1].DurationSeconds)
		}
		if e.Route != "assign" || e.ID == "" || e.DurationSeconds <= 0 {
			t.Errorf("slow entry %d = %+v", i, e)
		}
		// The breakdown is filled in: an assign spends time in decode and
		// assignment, and the phases sum to no more than the total.
		if e.DecodeSeconds <= 0 || e.AssignSeconds <= 0 {
			t.Errorf("entry %d missing timing breakdown: %+v", i, e)
		}
		if sum := e.QueueSeconds + e.DecodeSeconds + e.AssignSeconds + e.EncodeSeconds; sum > e.DurationSeconds {
			t.Errorf("entry %d phase sum %v exceeds total %v", i, sum, e.DurationSeconds)
		}
	}
}

// TestReadyzDrain: /readyz serves 200 with cache state while serving
// and 503 once draining; Shutdown flushes the access log.
func TestReadyzDrain(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 14)
	var logBuf syncBuffer
	d, base := startDaemon(t, Config{ModelDir: dir, AccessLog: &logBuf})

	readyz := func() (int, readyState) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var st readyState
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	if code, st := readyz(); code != 200 || !st.Ready || st.ModelsResident != 0 {
		t.Errorf("fresh readyz = %d %+v, want 200 ready with no resident models", code, st)
	}
	postAssign(t, base, "a.pmfm", "text/csv", []byte("1,2,3,4,5\n"))
	if code, st := readyz(); code != 200 || st.ModelsResident != 1 {
		t.Errorf("warm readyz = %d %+v, want 1 resident model", code, st)
	}

	// Flip draining directly (Shutdown also closes the listener, which
	// would make the 503 unobservable over HTTP).
	d.draining.Store(true)
	if code, st := readyz(); code != 503 || st.Ready || !st.Draining {
		t.Errorf("draining readyz = %d %+v, want 503 draining", code, st)
	}

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logBuf.String(), `"route":"readyz"`) {
		t.Error("Shutdown did not flush the access log")
	}
}

// TestAllEmittedMetricsAreRegistered drives every route and asserts
// each counter and histogram the daemon emits belongs to the closed
// obs name registry — an unregistered emission is a typo.
func TestAllEmittedMetricsAreRegistered(t *testing.T) {
	dir := t.TempDir()
	res, m := fitModel(t, dir, "a.pmfm", 15)
	d, base := startDaemon(t, Config{
		ModelDir:        dir,
		TraceSample:     1,
		SwapCheck:       time.Millisecond,
		IngestModel:     "stream.pmfm",
		IngestDims:      5,
		ProfileDir:      t.TempDir(),
		ProfileInterval: 5 * time.Millisecond,
		ProfileCPU:      2 * time.Millisecond,
	})
	defer d.Shutdown(context.Background())

	postAssign(t, base, "a.pmfm", "text/csv", csvBody(m))
	postAssign(t, base, "missing.pmfm", "text/csv", []byte("1\n"))
	// Stream records in and refit so the ingest.* families are emitted.
	resp, err := http.Post(base+"/ingest?refit=1", "text/csv", bytes.NewReader(csvBody(m)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	// Overwrite the served model and keep requesting until the
	// freshness check hot-swaps it, emitting the swap.* families.
	if err := modelio.SaveMeta(filepath.Join(dir, "a.pmfm"), res, 7); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		postAssign(t, base, "a.pmfm", "text/csv", []byte("1,2,3,4,5\n"))
		if d.rec.Counter(obs.CtrSwapSwaps) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("model overwrite never swapped in")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Let the profiler finish at least one capture cycle so the
	// profile.* counters are emitted too.
	for deadline := time.Now().Add(10 * time.Second); ; {
		met := d.rec.Metrics()
		if met.Counters[obs.CtrProfileCPU] >= 1 && met.Counters[obs.CtrProfileHeap] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("profiler never captured")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, route := range []string{"/healthz", "/readyz", "/models", "/metrics", "/debug/slow", "/debug/trace", "/debug/profiles"} {
		resp, err := http.Get(base + route)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	met := d.rec.Metrics()
	for name := range met.Counters {
		if !obs.IsRegistered(name) {
			t.Errorf("daemon emitted unregistered counter %q", name)
		}
	}
	for name := range d.rec.Histograms() {
		if !obs.IsRegisteredHistogram(name) {
			t.Errorf("daemon emitted unregistered histogram %q", name)
		}
	}
	for name := range d.rec.Gauges() {
		if !obs.IsRegisteredGauge(name) {
			t.Errorf("daemon emitted unregistered gauge %q", name)
		}
	}
}

// TestConcurrentAssignAndScrape hammers /assign, /metrics, /models,
// /readyz, and /debug/slow from concurrent clients (run under -race in
// make check) and then verifies shutdown leaks no goroutines.
func TestConcurrentAssignAndScrape(t *testing.T) {
	dir := t.TempDir()
	res, m := fitModel(t, dir, "a.pmfm", 6)
	fitModel(t, dir, "b.pmfm", 7)
	before := runtime.NumGoroutine()
	var logBuf syncBuffer
	d, base := startDaemon(t, Config{ModelDir: dir, CacheCap: 1, Inflight: 4, AccessLog: &logBuf})

	want, err := res.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := csvBody(m)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	const iters = 15
	for c := 0; c < 3; c++ {
		wg.Add(4)
		go func(c int) { // assign clients, alternating models to churn the LRU
			defer wg.Done()
			name := "a.pmfm"
			if c%2 == 1 {
				name = "b.pmfm"
			}
			for i := 0; i < iters; i++ {
				resp, err := http.Post(base+"/assign?model="+name, "text/csv", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("assign %s: status %d: %s", name, resp.StatusCode, raw)
					return
				}
				if name == "a.pmfm" {
					var ar assignResponse
					if err := json.Unmarshal(raw, &ar); err != nil {
						errs <- err
						return
					}
					for j := range want {
						if ar.Labels[j] != want[j] {
							errs <- fmt.Errorf("iter %d record %d: %d vs %d", i, j, ar.Labels[j], want[j])
							return
						}
					}
				}
			}
		}(c)
		go func() { // metrics scrapers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		go func() { // model listers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Get(base + "/models")
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		go func() { // readiness and /debug/slow scrapers
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, route := range []string{"/readyz", "/debug/slow"} {
					resp, err := http.Get(base + route)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Close the client's idle connections first: Shutdown counts a
	// connection dialed but never used (state StateNew) as active for
	// 5s, as long as this test's whole shutdown budget.
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Goroutines wind down asynchronously after Shutdown returns; poll
	// briefly before declaring a leak.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= before || time.Now().After(deadline) {
			if g > before+2 {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s", before, g, buf[:runtime.Stack(buf, true)])
			}
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}
