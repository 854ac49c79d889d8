package obs

// Serve-side request tracing. Where the Recorder's spans cover the
// fit-side SPMD engine in rank-clock time, a ServeTrace covers one
// HTTP request in wall-clock time: a root span (the whole request)
// plus flat child stage spans (queue, decode or frame-decode, kernel,
// encode). Traces live in a TraceRing, which applies head sampling
// plus tail-based retention: every non-2xx request and every request
// that ranks among the slowest seen are always kept, regardless of
// the sampling decision, so the interesting tail survives even at a
// 1% sample rate.
//
// All times are float64 seconds since the ring's epoch (its creation
// time), converted to microseconds only at export.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// StageSpan is one child stage of a request trace.
type StageSpan struct {
	Stage string  `json:"stage"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// ServeTrace is one request's trace: identity, outcome, the root
// [Start, End] window, and its stage spans. A trace is built by a
// single goroutine (the request's).
type ServeTrace struct {
	// ID is the ring's retention key and must be unique per request
	// (the daemon uses the X-Request-ID). TraceID is the W3C
	// traceparent trace-id, carried as a correlation attribute only:
	// every request of one distributed trace (fan-out, retries) shares
	// it, so it cannot key the ring without requests shadowing each
	// other in Snapshot/Lookup.
	ID      string      `json:"id"`
	TraceID string      `json:"trace_id,omitempty"`
	Route   string      `json:"route"`
	Model   string      `json:"model,omitempty"`
	Status  int         `json:"status"`
	Records int         `json:"records,omitempty"`
	Start   float64     `json:"start"`
	End     float64     `json:"end"`
	Spans   []StageSpan `json:"spans"`
}

// Stage appends one stage span. Nil-safe: recording into an
// unsampled request (nil trace) is a no-op, so the tracing-off path
// costs a pointer test.
func (t *ServeTrace) Stage(stage string, start, end float64) {
	if t == nil {
		return
	}
	t.Spans = append(t.Spans, StageSpan{Stage: stage, Start: start, End: end})
}

// StageSum returns the summed stage durations — by construction they
// cover disjoint intervals of the request, so the sum is bounded by
// the root duration.
func (t *ServeTrace) StageSum() float64 {
	var sum float64
	for _, s := range t.Spans {
		sum += s.End - s.Start
	}
	return sum
}

// Duration returns the root span's duration.
func (t *ServeTrace) Duration() float64 { return t.End - t.Start }

// TraceRing is the bounded retention store for serve traces. Offer
// classifies a finished trace into up to three retention classes:
//
//   - errs: every non-2xx trace, FIFO-bounded — errors are always kept.
//   - slow: the top-cap slowest traces seen so far, sorted slowest
//     first with the same insert/evict policy as the daemon's
//     /debug/slow ring, so (with slowCap >= the slow ring's cap) every
//     /debug/slow entry's trace is retained.
//   - samp: head-sampled ordinary traces, FIFO-bounded.
//
// All methods are nil-safe no-ops, preserving the package's
// pay-for-use contract.
type TraceRing struct {
	mu      sync.Mutex
	epoch   time.Time
	cap     int
	slowCap int

	samp []*ServeTrace
	errs []*ServeTrace
	slow []*ServeTrace
}

// NewTraceRing creates a ring keeping up to cap sampled traces, cap
// error traces, and max(cap, slowCap) slow traces.
func NewTraceRing(cap, slowCap int) *TraceRing {
	if cap < 1 {
		cap = 1
	}
	if slowCap < cap {
		slowCap = cap
	}
	return &TraceRing{epoch: time.Now(), cap: cap, slowCap: slowCap}
}

// Epoch returns the ring's time origin; trace and stage times are
// seconds since it.
func (tr *TraceRing) Epoch() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.epoch
}

// Offer classifies a finished trace. sampled is the head-sampling
// decision made at request start; retention is the union of the three
// classes, so errors and tail-latency outliers survive sampling.
func (tr *TraceRing) Offer(t *ServeTrace, sampled bool) (retained, asError, asSlow bool) {
	if tr == nil || t == nil {
		return false, false, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if t.Status >= 300 || t.Status < 200 {
		asError = true
		tr.errs = append(tr.errs, t)
		if len(tr.errs) > tr.cap {
			tr.errs = tr.errs[1:]
		}
	}
	if tr.offerSlowLocked(t) {
		asSlow = true
	}
	if sampled {
		tr.samp = append(tr.samp, t)
		if len(tr.samp) > tr.cap {
			tr.samp = tr.samp[1:]
		}
	}
	return sampled || asError || asSlow, asError, asSlow
}

// offerSlowLocked inserts t if it ranks among the slowCap slowest
// traces — the same top-cap policy as the daemon's slow ring (sorted
// slowest first, ties keep the earlier arrival, fastest falls out).
func (tr *TraceRing) offerSlowLocked(t *ServeTrace) bool {
	d := t.Duration()
	if len(tr.slow) == tr.slowCap && d <= tr.slow[tr.slowCap-1].Duration() {
		return false
	}
	i := sort.Search(len(tr.slow), func(i int) bool {
		return tr.slow[i].Duration() < d
	})
	tr.slow = append(tr.slow, nil)
	copy(tr.slow[i+1:], tr.slow[i:])
	tr.slow[i] = t
	if len(tr.slow) > tr.slowCap {
		tr.slow = tr.slow[:tr.slowCap]
	}
	return true
}

// Lookup returns the retained trace with the given ID, nil if it was
// never retained or has since been evicted from every class.
func (tr *TraceRing) Lookup(id string) *ServeTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, class := range [][]*ServeTrace{tr.errs, tr.slow, tr.samp} {
		for _, t := range class {
			if t.ID == id {
				return t
			}
		}
	}
	return nil
}

// Snapshot returns the retained traces, deduplicated across classes
// and ordered by start time.
func (tr *TraceRing) Snapshot() []*ServeTrace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	seen := map[string]bool{}
	var traces []*ServeTrace
	for _, class := range [][]*ServeTrace{tr.errs, tr.slow, tr.samp} {
		for _, t := range class {
			if !seen[t.ID] {
				seen[t.ID] = true
				traces = append(traces, t)
			}
		}
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start < traces[j].Start })
	return traces
}

// WriteChromeTrace exports every retained trace as a Chrome
// trace_event document.
func (tr *TraceRing) WriteChromeTrace(w io.Writer) error {
	if tr == nil {
		return fmt.Errorf("obs: nil trace ring")
	}
	return WriteServeTrace(w, tr.Snapshot())
}

// WriteTraceByID exports one retained trace. found is false when the
// ID is unknown.
func (tr *TraceRing) WriteTraceByID(w io.Writer, id string) (found bool, err error) {
	if tr == nil {
		return false, nil
	}
	t := tr.Lookup(id)
	if t == nil {
		return false, nil
	}
	return true, WriteServeTrace(w, []*ServeTrace{t})
}

// WriteServeTrace renders request traces as Chrome trace_event JSON:
// one thread track per request, the root "X" event named after the
// route and the stage "X" events inside it.
func WriteServeTrace(w io.Writer, traces []*ServeTrace) error {
	doc := traceDoc{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{
		{Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
			Args: map[string]any{"name": "pmafiad"}},
	}}
	for i, t := range traces {
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i + 1,
			Args: map[string]any{"name": fmt.Sprintf("req %s (%s)", t.ID, t.Route)},
		})
		args := map[string]any{"id": t.ID, "status": t.Status}
		if t.TraceID != "" {
			args["trace_id"] = t.TraceID
		}
		if t.Model != "" {
			args["model"] = t.Model
		}
		if t.Records > 0 {
			args["records"] = t.Records
		}
		doc.TraceEvents = append(doc.TraceEvents, traceEvent{
			Name: t.Route, Cat: "request", Ph: "X",
			Ts: t.Start * 1e6, Dur: t.Duration() * 1e6,
			Pid: 0, Tid: i + 1, Args: args,
		})
		for _, s := range t.Spans {
			doc.TraceEvents = append(doc.TraceEvents, traceEvent{
				Name: s.Stage, Cat: "stage", Ph: "X",
				Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
				Pid: 0, Tid: i + 1,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
