package daemon

// Request-level observability: the instrument middleware wraps every
// route with an X-Request-ID, per-route and per-model histograms,
// status-code counters, one structured access-log line, and an offer
// to the trace ring — all derived from one record per request.

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"pmafia/internal/obs"
)

type traceKey struct{}

// traceOf returns the request's record, or a throwaway one if the
// handler runs outside the middleware (tests calling handlers
// directly).
func traceOf(ctx context.Context) *obs.ServeTrace {
	if t, ok := ctx.Value(traceKey{}).(*obs.ServeTrace); ok {
		return t
	}
	return &obs.ServeTrace{}
}

// statusWriter captures the status code and body size a handler
// writes, defaulting to 200 for handlers that never call WriteHeader.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.status = http.StatusOK
		sw.wrote = true
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// idPrefix draws a random per-process prefix so request IDs from
// different daemon instances never collide.
func idPrefix() string {
	var b [6]byte
	rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b[:])
}

// validRequestID sanitizes a client-supplied X-Request-ID before it
// is echoed into response headers and JSON access-log lines: at most
// 128 bytes, every byte visible ASCII (0x21–0x7E) — no control
// characters, spaces, or high bytes that could smuggle header
// injections or mangle the log.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= 0x20 || id[i] >= 0x7f {
			return false
		}
	}
	return true
}

// requestID returns the client-provided X-Request-ID if it passes
// sanitization, or generates one (process prefix + sequence number).
func (d *Daemon) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%06d", d.idPrefix, d.idSeq.Add(1))
}

// instrument wraps a handler with the full request-observability
// stack. Every route goes through here, so "one access-log line per
// request" and "every response carries an X-Request-ID" hold globally.
// The request's one record (an obs.ServeTrace) travels via the request
// context, so handler signatures stay plain http.HandlerFunc. A
// handler panic is recovered: the response becomes a 500 (when
// nothing was written yet), the metrics / access-log / trace-ring
// invariants still hold for the request, and the panic message plus
// its stack land in the record. http.ErrAbortHandler is the
// exception: net/http uses it as the abort-the-connection sentinel,
// so it is re-panicked (after recording the request) rather than
// converted to a 500.
func (d *Daemon) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := &obs.ServeTrace{Start: time.Now(), ID: d.requestID(r), Route: route, Method: r.Method}
		w.Header().Set("X-Request-ID", t.ID)
		var sampled bool
		if d.traceStride > 0 {
			sampled = d.startTrace(w, r, t)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			panicked := recover()
			if panicked != nil {
				t.Panic = fmt.Sprint(panicked)
				if panicked == http.ErrAbortHandler {
					// net/http's sentinel for "abort this connection" must
					// keep propagating — swallowing it would turn an
					// intentional abort into a spurious 500. Record the
					// request first so the one-line-per-request invariant
					// still holds.
					d.finish(t, sw, sampled)
					panic(panicked)
				}
				t.PanicStack = string(debug.Stack())
				if !sw.wrote {
					http.Error(sw, "internal server error", http.StatusInternalServerError)
				}
			}
			d.finish(t, sw, sampled)
		}()
		h(sw, r.WithContext(context.WithValue(r.Context(), traceKey{}, t)))
	}
}

// finish is the post-handler half of instrument: it closes the record,
// observes the histograms and status counters, offers the record to
// the trace ring (setting exemplars for a retained one), and writes
// the access-log line. The record is read-only from the Offer on.
func (d *Daemon) finish(t *obs.ServeTrace, sw *statusWriter, sampled bool) {
	t.End = time.Now()
	t.Status, t.Bytes = sw.status, sw.bytes
	dur := t.Duration()

	d.rec.Observe(0, obs.HistRouteSeconds(t.Route), dur)
	d.rec.Add(0, obs.CtrHTTPStatus(t.Route, t.Status), 1)
	if t.Model != "" {
		d.rec.Observe(0, obs.HistModelSeconds(t.Model), dur)
		if t.Records > 0 {
			d.rec.Observe(0, obs.HistModelRecords(t.Model), float64(t.Records))
		}
	}

	if retained, slow := d.traces.Offer(t, sampled); retained {
		d.rec.Add(0, obs.CtrTraceRetained, 1)
		if slow {
			d.rec.Add(0, obs.CtrTraceRetainedSlow, 1)
		}
		// Exemplars point only at retained records — keyed by the
		// request ID, the ring's lookup key — so following one from a
		// dashboard never dead-ends on a dropped request.
		d.rec.SetExemplar(obs.HistRouteSeconds(t.Route), dur, t.ID)
		if t.Model != "" {
			d.rec.SetExemplar(obs.HistModelSeconds(t.Model), dur, t.ID)
		}
	}
	d.alog.write(t)
}

// accessRecord is one structured access-log line — and one
// /debug/slow row — carrying the per-stage timing breakdown alongside
// the total.
type accessRecord struct {
	Time            string  `json:"time"`
	ID              string  `json:"id"`
	TraceID         string  `json:"trace_id,omitempty"`
	Route           string  `json:"route"`
	Method          string  `json:"method"`
	Model           string  `json:"model,omitempty"`
	Records         int     `json:"records,omitempty"`
	Status          int     `json:"status"`
	Bytes           int64   `json:"bytes"`
	QueueSeconds    float64 `json:"queue_seconds"`
	DecodeSeconds   float64 `json:"decode_seconds"`
	AssignSeconds   float64 `json:"assign_seconds"`
	EncodeSeconds   float64 `json:"encode_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	Panic           string  `json:"panic,omitempty"`
	PanicStack      string  `json:"panic_stack,omitempty"`
}

// accessRow renders a request record as its access-log line.
func accessRow(t *obs.ServeTrace) accessRecord {
	return accessRecord{
		Time:            t.End.UTC().Format(time.RFC3339Nano),
		ID:              t.ID,
		TraceID:         t.TraceID,
		Route:           t.Route,
		Method:          t.Method,
		Model:           t.Model,
		Records:         t.Records,
		Status:          t.Status,
		Bytes:           t.Bytes,
		QueueSeconds:    t.Stages[obs.StageQueue].Seconds(),
		DecodeSeconds:   t.Stages[obs.StageDecode].Seconds() + t.Stages[obs.StageFrameDecode].Seconds(),
		AssignSeconds:   t.Stages[obs.StageKernel].Seconds(),
		EncodeSeconds:   t.Stages[obs.StageEncode].Seconds(),
		DurationSeconds: t.Duration(),
		Panic:           t.Panic,
		PanicStack:      t.PanicStack,
	}
}

// accessLog serializes JSON access-log lines onto one writer. Writes
// are buffered; Shutdown flushes. A nil writer disables logging at
// zero cost per request beyond the nil check.
type accessLog struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
}

func newAccessLog(w io.Writer) *accessLog {
	if w == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	return &accessLog{bw: bw, enc: json.NewEncoder(bw)}
}

func (a *accessLog) write(t *obs.ServeTrace) {
	if a == nil {
		return
	}
	rec := accessRow(t)
	a.mu.Lock()
	a.enc.Encode(rec) // Encode appends the newline: one line per request
	a.mu.Unlock()
}

func (a *accessLog) flush() error {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bw.Flush()
}

// debugSlow serves the trace ring's slow class as access-log rows,
// slowest first.
func (d *Daemon) debugSlow(w http.ResponseWriter, _ *http.Request) {
	slow := d.traces.Slowest()
	rows := make([]accessRecord, len(slow))
	for i, t := range slow {
		rows[i] = accessRow(t)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(rows)
}
