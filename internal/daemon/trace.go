package daemon

// Serve-side request tracing: every request's record (see obs.go) is
// offered to the trace ring, which always keeps errors and
// tail-latency outliers and, with Config.TraceSample > 0, head-samples
// ordinary requests. TraceSample also turns on W3C traceparent
// propagation: the instrument middleware honors an inbound traceparent
// and emits the daemon's own outbound. Retained records serve as
// Chrome trace_event JSON at /debug/trace (and /debug/trace/{id}) and
// as OpenMetrics exemplars on the latency histograms.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strings"

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

// startTrace carries the request's W3C trace context: the inbound
// traceparent trace-id (or a freshly minted one) rides along on the
// record as a correlation attribute and is echoed outbound with the
// daemon's own span-id. The record stays keyed by the request's own
// unique ID — a W3C trace-id is shared by every request in one
// distributed trace (fan-out, retries), so keying the ring by it would
// make such requests shadow each other. Also makes the deterministic
// head-sampling decision (every traceStride-th request). Only called
// when head sampling is on.
func (d *Daemon) startTrace(w http.ResponseWriter, r *http.Request, t *obs.ServeTrace) (sampled bool) {
	t.TraceID = parseTraceparent(r.Header.Get("traceparent"))
	if t.TraceID == "" {
		t.TraceID = randHex(16)
	}
	w.Header().Set("traceparent", "00-"+t.TraceID+"-"+randHex(8)+"-01")
	n := d.traceSeq.Add(1)
	return (n-1)%d.traceStride == 0
}

// debugTrace serves the retained records as Chrome trace_event JSON:
// the whole ring at /debug/trace, one record at /debug/trace/{id}.
func (d *Daemon) debugTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/trace"), "/")
	var traces []*obs.ServeTrace
	if id == "" {
		traces = d.traces.Snapshot()
	} else if t := d.traces.Lookup(id); t != nil {
		traces = []*obs.ServeTrace{t}
	} else {
		http.Error(w, "trace "+id+" not retained", http.StatusNotFound)
		return
	}
	// Render into a buffer first, so an export error becomes a clean
	// 500 instead of a truncated 200.
	var buf bytes.Buffer
	if err := obs.WriteServeTrace(&buf, traces); err != nil {
		http.Error(w, "trace export: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
