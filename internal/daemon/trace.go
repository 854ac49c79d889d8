package daemon

// Serve-side request tracing: the instrument middleware starts one
// obs.ServeTrace per request when tracing is enabled (Config
// TraceSample > 0), honoring an inbound W3C traceparent and emitting
// the daemon's own outbound. Handlers annotate stage spans via
// reqStats; the middleware offers the finished trace to the ring,
// which head-samples ordinary requests and always keeps errors and
// tail-latency outliers. Retained traces serve as Chrome
// trace_event JSON at /debug/trace (and /debug/trace/{id}) and as
// OpenMetrics exemplars on the latency histograms.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"
	"time"

	"pmafia/internal/obs"
)

// parseTraceparent extracts the trace-id of a W3C traceparent header
// (version 00: "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>"),
// "" if the header is absent or malformed. An all-zero trace-id is
// invalid per spec.
func parseTraceparent(h string) string {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || parts[0] != "00" ||
		!isLowerHex(parts[1], 32) || !isLowerHex(parts[2], 16) || !isLowerHex(parts[3], 2) {
		return ""
	}
	if parts[1] == strings.Repeat("0", 32) {
		return ""
	}
	return parts[1]
}

func isLowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// randHex returns n random bytes as 2n lowercase hex characters.
func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b)
}

// startTrace begins the request's trace, keyed by the request's own
// unique ID — a W3C trace-id is shared by every request in one
// distributed trace (fan-out, retries), so keying the ring by it
// would make such requests shadow each other. The inbound traceparent
// trace-id (or a freshly minted one) rides along as a correlation
// attribute and is echoed outbound with the daemon's own span-id.
// Also makes the deterministic head-sampling decision (every
// traceStride-th request). Only called when tracing is enabled.
func (d *Daemon) startTrace(w http.ResponseWriter, r *http.Request, st *reqStats, route, id string, start time.Time) (traceID string, sampled bool) {
	traceID = parseTraceparent(r.Header.Get("traceparent"))
	if traceID == "" {
		traceID = randHex(16)
	}
	w.Header().Set("traceparent", "00-"+traceID+"-"+randHex(8)+"-01")
	st.epoch = d.traces.Epoch()
	st.tr = &obs.ServeTrace{ID: id, TraceID: traceID, Route: route, Start: start.Sub(st.epoch).Seconds()}
	n := d.traceSeq.Add(1)
	return traceID, (n-1)%d.traceStride == 0
}

// debugTrace serves the retained traces as Chrome trace_event JSON:
// the whole ring at /debug/trace, one trace at /debug/trace/{id}.
func (d *Daemon) debugTrace(w http.ResponseWriter, r *http.Request) {
	if d.traces == nil {
		http.Error(w, "tracing disabled (start with -trace-sample > 0)", http.StatusNotFound)
		return
	}
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/trace"), "/")
	// Render into a buffer first: the per-ID path then needs a single
	// ring lookup (a lookup-then-write pair could race an eviction into
	// a 200 with an empty body), and an export error becomes a clean
	// 500 instead of a truncated 200.
	var buf bytes.Buffer
	if id == "" {
		if err := d.traces.WriteChromeTrace(&buf); err != nil {
			http.Error(w, "trace export: "+err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		found, err := d.traces.WriteTraceByID(&buf, id)
		if err != nil {
			http.Error(w, "trace export: "+err.Error(), http.StatusInternalServerError)
			return
		}
		if !found {
			http.Error(w, "trace "+id+" not retained", http.StatusNotFound)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
