package obs

// Serve-side request records. Where the Recorder's spans cover the
// fit-side SPMD engine in rank-clock time, a ServeTrace covers one
// HTTP request in wall-clock time: its identity and outcome, the root
// window (the whole request), and a fixed array of stage spans
// (queue, decode or frame-decode, kernel, encode). The serving daemon
// builds one per request and derives every per-request view from it.
// Finished records are offered to a TraceRing, which applies head
// sampling plus tail-based retention: every non-2xx request and every
// request that ranks among the slowest seen are always kept,
// regardless of the sampling decision, so the interesting tail
// survives even at a 1% sample rate.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stage indexes the timed stages of a served request.
type Stage uint8

const (
	StageQueue       Stage = iota // admission wait for an in-flight slot
	StageDecode                   // CSV body decode
	StageFrameDecode              // PMAS frame decode
	StageKernel                   // the batch assignment kernel
	StageEncode                   // response encode and write
	numStages
)

var stageNames = [numStages]string{"queue", "decode", "frame-decode", "kernel", "encode"}

// String returns the stage's name, as it appears in the Chrome export.
func (s Stage) String() string { return stageNames[s] }

// StageSpan is one stage's window; both ends are zero for a stage the
// request never ran.
type StageSpan struct {
	Start, End time.Time
}

// Ran reports whether the stage was marked.
func (s StageSpan) Ran() bool { return !s.Start.IsZero() }

// Seconds returns the stage's duration, 0 for a stage that never ran.
func (s StageSpan) Seconds() float64 { return s.End.Sub(s.Start).Seconds() }

// ServeTrace is one request's record: identity, outcome, the root
// [Start, End] window, and its stage spans. A record is built by a
// single goroutine (the request's) and is read-only once offered to a
// TraceRing.
type ServeTrace struct {
	// ID is the ring's retention key and must be unique per request
	// (the daemon uses the X-Request-ID). TraceID is the W3C
	// traceparent trace-id, carried as a correlation attribute only:
	// every request of one distributed trace (fan-out, retries) shares
	// it, so it cannot key the ring without requests shadowing each
	// other in Snapshot/Lookup.
	ID      string
	TraceID string
	Route   string
	Method  string
	Model   string

	Status     int
	Records    int
	Bytes      int64
	Panic      string
	PanicStack string

	Start, End time.Time
	Stages     [numStages]StageSpan
}

// Mark records stage s as having run over [start, end].
func (t *ServeTrace) Mark(s Stage, start, end time.Time) {
	t.Stages[s] = StageSpan{Start: start, End: end}
}

// StageSum returns the summed stage durations — by construction they
// cover disjoint intervals of the request, so the sum is bounded by
// the root duration.
func (t *ServeTrace) StageSum() float64 {
	var sum float64
	for _, s := range t.Stages {
		sum += s.Seconds()
	}
	return sum
}

// Duration returns the root span's duration in seconds.
func (t *ServeTrace) Duration() float64 { return t.End.Sub(t.Start).Seconds() }

// TraceRing is the bounded retention store for request records. Offer
// classifies a finished record into up to three retention classes,
// each holding at most cap records:
//
//   - errs: every non-2xx record, FIFO — errors are always kept.
//   - slow: the cap slowest records seen so far, sorted slowest first
//     (ties keep the earlier arrival, the fastest falls out).
//   - samp: head-sampled ordinary records, FIFO.
type TraceRing struct {
	mu  sync.Mutex
	cap int

	samp []*ServeTrace
	errs []*ServeTrace
	slow []*ServeTrace
}

// NewTraceRing creates a ring keeping up to cap records per class.
func NewTraceRing(cap int) *TraceRing {
	if cap < 1 {
		cap = 1
	}
	return &TraceRing{cap: cap}
}

// Offer classifies a finished record. sampled is the head-sampling
// decision made at request start; retention is the union of the three
// classes, so errors and tail-latency outliers survive sampling.
func (tr *TraceRing) Offer(t *ServeTrace, sampled bool) (retained, slow bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	isErr := t.Status >= 300 || t.Status < 200
	if isErr {
		tr.errs = appendFIFO(tr.errs, t, tr.cap)
	}
	slow = tr.offerSlowLocked(t)
	if sampled {
		tr.samp = appendFIFO(tr.samp, t, tr.cap)
	}
	return sampled || isErr || slow, slow
}

// appendFIFO appends t to a class, dropping the oldest record past cap.
func appendFIFO(class []*ServeTrace, t *ServeTrace, cap int) []*ServeTrace {
	class = append(class, t)
	if len(class) > cap {
		class = class[1:]
	}
	return class
}

// offerSlowLocked inserts t if it ranks among the cap slowest records.
func (tr *TraceRing) offerSlowLocked(t *ServeTrace) bool {
	d := t.Duration()
	if len(tr.slow) == tr.cap && d <= tr.slow[tr.cap-1].Duration() {
		return false
	}
	i := sort.Search(len(tr.slow), func(i int) bool {
		return tr.slow[i].Duration() < d
	})
	tr.slow = append(tr.slow, nil)
	copy(tr.slow[i+1:], tr.slow[i:])
	tr.slow[i] = t
	if len(tr.slow) > tr.cap {
		tr.slow = tr.slow[:tr.cap]
	}
	return true
}

// Slowest returns the slow class, slowest first.
func (tr *TraceRing) Slowest() []*ServeTrace {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]*ServeTrace(nil), tr.slow...)
}

// Lookup returns the retained record with the given ID, nil if it was
// never retained or has since been evicted from every class.
func (tr *TraceRing) Lookup(id string) *ServeTrace {
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

// Snapshot returns the retained records, deduplicated across classes
// and ordered by start time.
func (tr *TraceRing) Snapshot() []*ServeTrace {
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
	sort.Slice(traces, func(i, j int) bool { return traces[i].Start.Before(traces[j].Start) })
	return traces
}

// WriteServeTrace renders request records as Chrome trace_event JSON:
// one thread track per request, the root "X" event named after the
// route and the "X" events of the stages that ran inside it, in stage
// order. Times are microseconds since the earliest request's start.
func WriteServeTrace(w io.Writer, traces []*ServeTrace) error {
	var origin time.Time
	for _, t := range traces {
		if origin.IsZero() || t.Start.Before(origin) {
			origin = t.Start
		}
	}
	micros := func(at time.Time) float64 { return float64(at.Sub(origin)) / 1e3 }
	var events []traceEvent
	for i, t := range traces {
		events = append(events, traceEvent{
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
		events = append(events, traceEvent{
			Name: t.Route, Cat: "request", Ph: "X",
			Ts: micros(t.Start), Dur: t.Duration() * 1e6,
			Pid: 0, Tid: i + 1, Args: args,
		})
		for s, span := range t.Stages {
			if !span.Ran() {
				continue
			}
			events = append(events, traceEvent{
				Name: Stage(s).String(), Cat: "stage", Ph: "X",
				Ts: micros(span.Start), Dur: span.Seconds() * 1e6,
				Pid: 0, Tid: i + 1,
			})
		}
	}
	return writeTraceDoc(w, "pmafiad", events)
}
