package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pmafia/internal/dataset"
	"pmafia/internal/obs"
)

// get fetches a URL and returns the response plus body.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// chromeDoc is the subset of the Chrome trace_event schema the tests
// assert on.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestServeTraceEndToEnd drives concurrent framed traffic at a fully
// sampled daemon and asserts the /debug/trace export end to end:
// valid Chrome trace_event JSON with one request span per request,
// each framed request traced as exactly the queue, frame-decode,
// kernel and encode stages, stage spans summing to within the
// route-histogram observation, per-ID lookup, and /debug/slow rows
// that all resolve in the ring.
func TestServeTraceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 1)
	d, base := startDaemon(t, Config{
		ModelDir:    dir,
		TraceSample: 1,
		Inflight:    32,
	})
	defer d.Shutdown(context.Background())

	dims := m.D
	const clients, reqs = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				lo := (c*reqs + i) * 8 % (m.NumRecords() - 8)
				body, err := EncodeFrame(dims, m.Values[lo*dims:(lo+8)*dims])
				if err != nil {
					t.Error(err)
					return
				}
				resp, raw := postAssign(t, base, "a.pmfm", ContentTypeFrame, body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, raw)
				}
			}
		}(c)
	}
	wg.Wait()

	resp, raw := get(t, base+"/debug/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d", resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}

	requests := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "request" {
			requests++
		}
	}
	if requests != clients*reqs {
		t.Errorf("exported %d request spans, want %d (sample rate 1)", requests, clients*reqs)
	}

	// Stage spans of every retained trace sum to within the request's
	// root duration, which the route histogram observed: no trace can
	// outlast the histogram's exact max.
	traces := d.traces.Snapshot()
	hist := d.rec.Histogram(obs.HistRouteSeconds("assign"))
	if hist == nil {
		t.Fatal("no assign route histogram")
	}
	checked := 0
	for _, tr := range traces {
		if tr.Route != "assign" {
			continue
		}
		checked++
		if sum, dur := tr.StageSum(), tr.Duration(); sum > dur+1e-6 {
			t.Errorf("trace %s: stage sum %.6fs exceeds duration %.6fs", tr.ID, sum, dur)
		}
		if dur := tr.Duration(); dur > hist.Max()+1e-6 {
			t.Errorf("trace %s: duration %.6fs exceeds histogram max %.6fs", tr.ID, dur, hist.Max())
		}
		var stages []string
		for i, s := range tr.Stages {
			if s.Ran() {
				stages = append(stages, obs.Stage(i).String())
			}
		}
		if got, want := strings.Join(stages, ","), "queue,frame-decode,kernel,encode"; got != want {
			t.Errorf("trace %s has stages %s, want exactly %s", tr.ID, got, want)
		}
	}
	if checked != clients*reqs {
		t.Errorf("checked %d assign traces, want %d", checked, clients*reqs)
	}

	// Per-ID lookup round-trips through HTTP.
	id := traces[0].ID
	resp, raw = get(t, base+"/debug/trace/"+id)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(id)) {
		t.Errorf("/debug/trace/{id} status %d", resp.StatusCode)
	}
	if resp, _ := get(t, base+"/debug/trace/doesnotexist"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace id served %d, want 404", resp.StatusCode)
	}

	// /debug/slow is the ring's slow class: every row names a retained,
	// resolvable trace.
	_, raw = get(t, base+"/debug/slow")
	var slow []accessRecord
	if err := json.Unmarshal(raw, &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow) == 0 {
		t.Fatal("empty /debug/slow after traffic")
	}
	for _, e := range slow {
		if e.TraceID == "" {
			t.Errorf("slow entry %s has no trace id", e.ID)
		}
		if d.traces.Lookup(e.ID) == nil {
			t.Errorf("slow entry %s: trace not retained", e.ID)
		}
	}
}

// TestRequestViewsAgree: one framed request's access-log line, its
// /debug/slow row, and its /debug/trace/{id} events are views of one
// record, so they report the same stage durations, status, records,
// and model.
func TestRequestViewsAgree(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 5)
	var logBuf syncBuffer
	d, base := startDaemon(t, Config{ModelDir: dir, TraceSample: 1, AccessLog: &logBuf})
	defer d.Shutdown(context.Background())

	body, err := EncodeFrame(m.D, m.Values[:16*m.D])
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postAssign(t, base, "a.pmfm", ContentTypeFrame, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	id := resp.Header.Get("X-Request-ID")

	if err := d.alog.flush(); err != nil {
		t.Fatal(err)
	}
	var line accessRecord
	if err := json.Unmarshal([]byte(logBuf.String()), &line); err != nil {
		t.Fatal(err)
	}
	if line.ID != id {
		t.Fatalf("access-log line is for %s, want %s", line.ID, id)
	}

	_, raw = get(t, base+"/debug/slow")
	var rows []accessRecord
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	var row *accessRecord
	for i := range rows {
		if rows[i].ID == id {
			row = &rows[i]
		}
	}
	if row == nil {
		t.Fatalf("request %s missing from /debug/slow", id)
	}

	resp, raw = get(t, base+"/debug/trace/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/%s status %d", id, resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	stage := map[string]float64{}
	var root map[string]any
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "stage":
			stage[ev.Name] = ev.Dur / 1e6
		case ev.Ph == "X" && ev.Cat == "request":
			root = ev.Args
		}
	}
	if root == nil {
		t.Fatal("trace has no request event")
	}

	const ns = 1e-9
	for _, view := range []struct {
		name                          string
		queue, decode, kernel, encode float64
	}{
		{"/debug/slow", row.QueueSeconds, row.DecodeSeconds, row.AssignSeconds, row.EncodeSeconds},
		{"/debug/trace", stage["queue"], stage["frame-decode"], stage["kernel"], stage["encode"]},
	} {
		for _, c := range []struct {
			stage     string
			got, want float64
		}{
			{"queue", view.queue, line.QueueSeconds},
			{"decode", view.decode, line.DecodeSeconds},
			{"kernel", view.kernel, line.AssignSeconds},
			{"encode", view.encode, line.EncodeSeconds},
		} {
			if math.Abs(c.got-c.want) > ns {
				t.Errorf("%s %s = %.12fs, access log says %.12fs", view.name, c.stage, c.got, c.want)
			}
		}
	}
	if line.DecodeSeconds <= 0 || line.AssignSeconds <= 0 {
		t.Errorf("access-log line has no stage breakdown: %+v", line)
	}
	if row.Status != line.Status || row.Records != line.Records || row.Model != line.Model {
		t.Errorf("/debug/slow row %+v disagrees with access-log line %+v", *row, line)
	}
	if root["status"] != float64(line.Status) || root["records"] != float64(line.Records) || root["model"] != line.Model {
		t.Errorf("trace request args %v disagree with access-log line %+v", root, line)
	}
	if line.Status != http.StatusOK || line.Records != 16 || line.Model != "a.pmfm" {
		t.Errorf("access-log line = %+v", line)
	}
}

// TestTraceTailRetention drives mixed traffic at -trace-sample 0.01
// and verifies the tail-based retention contract: 100% of non-2xx
// requests and 100% of the slowest decile are retained, while head
// sampling keeps request 1 and 101 and drops the rest of the ordinary
// traffic outside the slow class.
func TestTraceTailRetention(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 2)
	var logBuf syncBuffer
	d, base := startDaemon(t, Config{
		ModelDir:    dir,
		TraceSample: 0.01,
		TraceRing:   64,
		AccessLog:   &logBuf,
	})
	defer d.Shutdown(context.Background())

	const total, errEvery = 150, 15
	body := csvBody(&dataset.Matrix{D: m.D, Values: m.Values[:64*m.D]})
	for i := 0; i < total; i++ {
		model := "a.pmfm"
		if i%errEvery == errEvery-1 {
			model = "missing.pmfm" // 404: must always be retained
		}
		resp, _ := postAssign(t, base, model, "text/csv", body)
		if model == "a.pmfm" && resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	if err := d.alog.flush(); err != nil {
		t.Fatal(err)
	}
	var recs []accessRecord
	sc := bufio.NewScanner(strings.NewReader(logBuf.String()))
	for sc.Scan() {
		var rec accessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Route == "assign" {
			recs = append(recs, rec)
		}
	}
	if len(recs) != total {
		t.Fatalf("access log has %d assign lines, want %d", len(recs), total)
	}

	// 100% of non-2xx requests are retained.
	errs := 0
	for _, rec := range recs {
		if rec.Status == http.StatusOK {
			continue
		}
		errs++
		if d.traces.Lookup(rec.ID) == nil {
			t.Errorf("non-2xx request %s not retained", rec.ID)
		}
	}
	if errs != total/errEvery {
		t.Fatalf("saw %d errors, want %d", errs, total/errEvery)
	}

	// 100% of the slowest decile is retained: the ring's slow class
	// keeps the top-64 slowest, a superset of the top-15 of 150.
	byDur := append([]accessRecord(nil), recs...)
	for i := 1; i < len(byDur); i++ { // insertion sort, slowest first
		for j := i; j > 0 && byDur[j].DurationSeconds > byDur[j-1].DurationSeconds; j-- {
			byDur[j], byDur[j-1] = byDur[j-1], byDur[j]
		}
	}
	for _, rec := range byDur[:total/10] {
		if d.traces.Lookup(rec.ID) == nil {
			t.Errorf("slowest-decile request %s (%.6fs) not retained",
				rec.ID, rec.DurationSeconds)
		}
	}

	// Head sampling keeps every 100th request, starting with request 1;
	// an ordinary request outside the slow class is retained only if
	// sampled, so retention stays well under the request count.
	if d.traces.Lookup(recs[0].ID) == nil {
		t.Error("request 1 was not head-sampled at stride 100")
	}
	slow := map[string]bool{}
	for _, tr := range d.traces.Slowest() {
		slow[tr.ID] = true
	}
	for i, rec := range recs {
		if rec.Status != http.StatusOK || slow[rec.ID] {
			continue
		}
		if retained, sampled := d.traces.Lookup(rec.ID) != nil, i%100 == 0; retained != sampled {
			t.Errorf("request %d: retained=%v, head-sampled=%v", i+1, retained, sampled)
		}
	}
	traces := d.traces.Snapshot()
	if len(traces) >= total {
		t.Errorf("retained %d of %d traces — sampling kept everything", len(traces), total)
	}
}

// TestTraceparentPropagation: an inbound W3C traceparent's trace-id is
// adopted and echoed outbound with the daemon's own span-id; malformed
// headers are ignored and a fresh trace-id minted.
func TestTraceparentPropagation(t *testing.T) {
	dir := t.TempDir()
	d, base := startDaemon(t, Config{ModelDir: dir, TraceSample: 1})
	defer d.Shutdown(context.Background())

	inbound := "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	out := resp.Header.Get("traceparent")
	parts := strings.Split(out, "-")
	if len(parts) != 4 || parts[1] != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("outbound traceparent %q did not adopt the inbound trace-id", out)
	}
	if parts[2] == "00f067aa0ba902b7" {
		t.Error("daemon reused the caller's span-id instead of minting its own")
	}
	// The ring is keyed by the per-request ID; the shared W3C trace-id
	// rides along as an attribute (it is common to every request of a
	// distributed trace, so it cannot be the key).
	tr := d.traces.Lookup(resp.Header.Get("X-Request-ID"))
	if tr == nil {
		t.Fatal("request's trace not retained at sample rate 1")
	}
	if tr.TraceID != "0123456789abcdef0123456789abcdef" {
		t.Errorf("retained trace carries trace-id %q, want the adopted inbound one", tr.TraceID)
	}
	if d.traces.Lookup("0123456789abcdef0123456789abcdef") != nil {
		t.Error("ring keyed by the shared W3C trace-id instead of the per-request ID")
	}

	// Two requests sharing one distributed trace-id must both be
	// retained — keying by trace-id would make them shadow each other.
	req2, _ := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	req2.Header.Set("traceparent", inbound)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	id2 := resp2.Header.Get("X-Request-ID")
	if id2 == resp.Header.Get("X-Request-ID") {
		t.Fatal("two requests shared an X-Request-ID")
	}
	if d.traces.Lookup(id2) == nil {
		t.Error("second request of the same distributed trace was not retained")
	}
	traces := d.traces.Snapshot()
	withTid := 0
	for _, tr := range traces {
		if tr.TraceID == "0123456789abcdef0123456789abcdef" {
			withTid++
		}
	}
	if withTid != 2 {
		t.Errorf("snapshot holds %d traces with the shared trace-id, want 2", withTid)
	}

	for _, bad := range []string{
		"", "01-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"00-zzzz-00f067aa0ba902b7-01",
		"00-" + strings.Repeat("0", 32) + "-00f067aa0ba902b7-01",
		"00-0123456789ABCDEF0123456789ABCDEF-00f067aa0ba902b7-01",
	} {
		if got := parseTraceparent(bad); got != "" {
			t.Errorf("parseTraceparent(%q) = %q, want rejection", bad, got)
		}
	}
}

// TestMetricsExemplars scrapes /metrics both ways: the classic 0.0.4
// text exposition must be exemplar-free (exemplars are illegal there),
// while a scrape negotiating application/openmetrics-text gets the
// exemplar suffix on the latency-histogram bucket lines plus the
// # EOF trailer; the trace IDs it finds must resolve at
// /debug/trace/{id}.
func TestMetricsExemplars(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 3)
	d, base := startDaemon(t, Config{ModelDir: dir, TraceSample: 1})
	defer d.Shutdown(context.Background())

	body := csvBody(&dataset.Matrix{D: m.D, Values: m.Values[:32*m.D]})
	for i := 0; i < 3; i++ {
		if resp, raw := postAssign(t, base, "a.pmfm", "text/csv", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
	}

	// The classic 0.0.4 text exposition must carry no exemplars — its
	// parser reads the ` # ...` tail as a malformed timestamp and fails
	// the whole scrape — and no OpenMetrics trailer.
	resp, raw := get(t, base+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("plain scrape content type %q", ct)
	}
	if bytes.Contains(raw, []byte(" # ")) {
		t.Error("exemplar leaked into the 0.0.4 text exposition")
	}
	if bytes.Contains(raw, []byte("# EOF")) {
		t.Error("# EOF trailer leaked into the 0.0.4 text exposition")
	}

	// Negotiating OpenMetrics via Accept yields the exemplar-bearing
	// exposition, closed by the mandatory # EOF.
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	omResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err = io.ReadAll(omResp.Body)
	omResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := omResp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics scrape content type %q", ct)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(raw)), "# EOF") {
		t.Error("OpenMetrics exposition missing the # EOF trailer")
	}

	type exemplar struct {
		family, traceID string
		value, ts       float64
	}
	var found []exemplar
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		// OpenMetrics exemplar syntax:
		//   name_bucket{...} <count> # {trace_id="..."} <value> <ts>
		base, ex, ok := strings.Cut(line, " # ")
		if !ok {
			continue
		}
		if !strings.Contains(base, "_bucket{") {
			t.Errorf("exemplar on a non-bucket line: %s", line)
			continue
		}
		var traceID string
		var value, ts float64
		if _, err := fmt.Sscanf(ex, "{trace_id=%q} %g %g", &traceID, &value, &ts); err != nil {
			t.Errorf("unparseable exemplar %q: %v", ex, err)
			continue
		}
		if traceID == "" || value <= 0 || ts <= 0 {
			t.Errorf("degenerate exemplar %q", ex)
		}
		found = append(found, exemplar{family: base[:strings.Index(base, "_bucket{")], traceID: traceID, value: value, ts: ts})
	}
	families := map[string]bool{}
	for _, ex := range found {
		families[ex.family] = true
		if resp, _ := get(t, base+"/debug/trace/"+ex.traceID); resp.StatusCode != http.StatusOK {
			t.Errorf("exemplar trace %s not resolvable: status %d", ex.traceID, resp.StatusCode)
		}
	}
	for _, want := range []string{"pmafia_http_request_seconds", "pmafia_model_assign_seconds"} {
		if !families[want] {
			t.Errorf("no exemplar on family %s (found %v)", want, families)
		}
	}
}

// TestInstrumentRecoversPanic: a panicking handler yields a 500 with
// the metrics, access-log, and trace-ring invariants intact.
func TestInstrumentRecoversPanic(t *testing.T) {
	dir := t.TempDir()
	var logBuf syncBuffer
	d, _ := startDaemon(t, Config{ModelDir: dir, AccessLog: &logBuf, TraceSample: 1})
	defer d.Shutdown(context.Background())

	h := d.instrument("assign", func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodPost, "/assign", nil))

	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rr.Code)
	}
	if rr.Header().Get("X-Request-ID") == "" {
		t.Error("panicked response lost its X-Request-ID")
	}
	met := d.rec.Metrics()
	if met.Counters[obs.CtrHTTPStatus("assign", 500)] != 1 {
		t.Error("panic did not land in the status counters")
	}
	if h := d.rec.Histogram(obs.HistRouteSeconds("assign")); h == nil || h.Count() != 1 {
		t.Error("panic did not land in the route histogram")
	}
	if err := d.alog.flush(); err != nil {
		t.Fatal(err)
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(logBuf.String()), &rec); err != nil {
		t.Fatalf("no access-log line after panic: %v", err)
	}
	if rec.Status != 500 || !strings.Contains(rec.Panic, "boom") {
		t.Errorf("access record %+v does not carry the panic", rec)
	}
	if !strings.Contains(rec.PanicStack, "goroutine") {
		t.Errorf("access record carries no panic stack trace: %q", rec.PanicStack)
	}
	if slow := d.traces.Slowest(); len(slow) != 1 || slow[0].Status != 500 {
		t.Error("panic did not compete for the slow class")
	}
	if tr := d.traces.Lookup(rec.ID); tr == nil || tr.Status != 500 {
		t.Error("panicked request's trace not retained as an error")
	}

	// A panic after the handler already wrote keeps the wire status.
	rr = httptest.NewRecorder()
	d.instrument("assign", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("late")
	})(rr, httptest.NewRequest(http.MethodPost, "/assign", nil))
	if rr.Code != http.StatusAccepted {
		t.Errorf("late panic rewrote an already-sent status to %d", rr.Code)
	}
}

// TestInstrumentAbortHandlerPassthrough: http.ErrAbortHandler is
// net/http's abort-the-connection sentinel; the middleware must let it
// keep propagating (after recording the request) instead of converting
// it into a 500.
func TestInstrumentAbortHandlerPassthrough(t *testing.T) {
	dir := t.TempDir()
	var logBuf syncBuffer
	d, _ := startDaemon(t, Config{ModelDir: dir, AccessLog: &logBuf})
	defer d.Shutdown(context.Background())

	h := d.instrument("assign", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	recovered := func() (v any) {
		defer func() { v = recover() }()
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/assign", nil))
		return nil
	}()
	if recovered != http.ErrAbortHandler {
		t.Fatalf("middleware swallowed http.ErrAbortHandler (recovered %v)", recovered)
	}

	// The request was still recorded before the sentinel continued up.
	if h := d.rec.Histogram(obs.HistRouteSeconds("assign")); h == nil || h.Count() != 1 {
		t.Error("aborted request missing from the route histogram")
	}
	if err := d.alog.flush(); err != nil {
		t.Fatal(err)
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(logBuf.String()), &rec); err != nil {
		t.Fatalf("no access-log line for the aborted request: %v", err)
	}
	if rec.Panic == "" {
		t.Error("access record does not mark the aborted request")
	}
}

// TestRequestIDSanitized: client-supplied X-Request-ID values with
// control characters, spaces, or non-ASCII bytes are rejected (a
// fresh ID of the generated form is used); clean ones are echoed.
func TestRequestIDSanitized(t *testing.T) {
	dir := t.TempDir()
	d, _ := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	// Go's HTTP client refuses to even send control characters, so
	// exercise the middleware directly with handcrafted headers.
	h := d.instrument("healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	do := func(id string) string {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		req.Header["X-Request-Id"] = []string{id}
		rr := httptest.NewRecorder()
		h(rr, req)
		return rr.Header().Get("X-Request-ID")
	}

	if got := do("good-id_123/v2"); got != "good-id_123/v2" {
		t.Errorf("clean ID %q not echoed (got %q)", "good-id_123/v2", got)
	}
	for _, bad := range []string{
		"has space", "ctrl\x01char", "high\xffbyte", "tab\there",
		strings.Repeat("x", 129),
	} {
		if got := do(bad); got == bad || got == "" {
			t.Errorf("unsanitized ID %q was echoed", bad)
		}
	}
	if validRequestID("") || !validRequestID(strings.Repeat("x", 128)) {
		t.Error("validRequestID length edge cases wrong")
	}
	// A generated ID is the process prefix and the sequence number
	// zero-padded to six digits.
	for _, seq := range []int64{0, 41, 999998, 1234566} {
		d.idSeq.Store(seq)
		if got, want := do("has space"), fmt.Sprintf("%s-%06d", d.idPrefix, seq+1); got != want {
			t.Errorf("generated ID %q, want %q", got, want)
		}
	}
}

// TestAccessLogBreakdown: access-log lines carry the per-stage
// breakdown, and the stages are consistent with the total.
func TestAccessLogBreakdown(t *testing.T) {
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 4)
	var logBuf syncBuffer
	d, base := startDaemon(t, Config{ModelDir: dir, AccessLog: &logBuf})
	defer d.Shutdown(context.Background())

	body := csvBody(m)
	if resp, raw := postAssign(t, base, "a.pmfm", "text/csv", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if err := d.alog.flush(); err != nil {
		t.Fatal(err)
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(logBuf.String()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.DecodeSeconds <= 0 || rec.AssignSeconds <= 0 || rec.EncodeSeconds <= 0 {
		t.Errorf("breakdown missing from access record: %+v", rec)
	}
	sum := rec.QueueSeconds + rec.DecodeSeconds + rec.AssignSeconds + rec.EncodeSeconds
	if sum > rec.DurationSeconds+1e-6 {
		t.Errorf("stage sum %.6fs exceeds total %.6fs", sum, rec.DurationSeconds)
	}
}

// TestTracingOffZeroAlloc pins the allocation contract of the
// per-request record: marking a stage, offering a record that a full
// ring does not keep, and an exemplar write without an ID allocate
// nothing, so a request the ring drops costs no more than its record.
func TestTracingOffZeroAlloc(t *testing.T) {
	tr := &obs.ServeTrace{}
	t0, t1 := time.Now(), time.Now()
	if n := testing.AllocsPerRun(100, func() { tr.Mark(obs.StageKernel, t0, t1) }); n != 0 {
		t.Errorf("Mark allocates %v times", n)
	}
	ring := obs.NewTraceRing(1)
	ring.Offer(&obs.ServeTrace{ID: "slow", Status: 200, Start: t0, End: t0.Add(time.Hour)}, false)
	fast := &obs.ServeTrace{ID: "fast", Status: 200, Start: t0, End: t0}
	if n := testing.AllocsPerRun(100, func() {
		if retained, _ := ring.Offer(fast, false); retained {
			t.Fatal("a full ring kept a fast unsampled 200")
		}
	}); n != 0 {
		t.Errorf("Offer of a dropped record allocates %v times", n)
	}
	rec := obs.New()
	if n := testing.AllocsPerRun(100, func() { rec.SetExemplar("http.assign.seconds", 1, "") }); n != 0 {
		t.Errorf("SetExemplar with no trace allocates %v times", n)
	}
}
