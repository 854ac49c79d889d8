package obs

import (
	"fmt"
	"testing"
)

func mkTrace(id string, status int, start, dur float64) *ServeTrace {
	return &ServeTrace{ID: id, Route: "assign", Status: status, Start: start, End: start + dur}
}

func TestTraceRingRetentionClasses(t *testing.T) {
	tr := NewTraceRing(2, 2)

	// Unsampled 200s are dropped unless slow. Fill the slow class first
	// with two slow traces so a fast one has no tail claim.
	for i, dur := range []float64{1.0, 2.0} {
		retained, asErr, asSlow := tr.Offer(mkTrace(fmt.Sprintf("slow%d", i), 200, float64(i), dur), false)
		if !retained || asErr || !asSlow {
			t.Fatalf("slow trace %d: retained=%v asErr=%v asSlow=%v", i, retained, asErr, asSlow)
		}
	}
	if retained, _, _ := tr.Offer(mkTrace("fast", 200, 10, 0.001), false); retained {
		t.Fatal("fast unsampled 200 should not be retained")
	}
	// Errors are always retained, even when fast and unsampled.
	if retained, asErr, _ := tr.Offer(mkTrace("err", 404, 11, 0.001), false); !retained || !asErr {
		t.Fatal("non-2xx trace must always be retained")
	}
	// Sampled ordinary requests are retained via the head-sample class.
	if retained, asErr, asSlow := tr.Offer(mkTrace("samp", 200, 12, 0.001), true); !retained || asErr || asSlow {
		t.Fatal("sampled trace must be retained via the sample class")
	}

	if tr.Lookup("fast") != nil {
		t.Error("dropped trace is still resolvable")
	}
	for _, id := range []string{"slow0", "slow1", "err", "samp"} {
		if tr.Lookup(id) == nil {
			t.Errorf("retained trace %q not resolvable", id)
		}
	}
	traces := tr.Snapshot()
	if len(traces) != 4 {
		t.Fatalf("snapshot has %d traces, want 4", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		if traces[i].Start < traces[i-1].Start {
			t.Fatal("snapshot not ordered by start time")
		}
	}
}

func TestTraceRingSlowTopCap(t *testing.T) {
	tr := NewTraceRing(4, 4)
	durs := []float64{0.3, 0.1, 0.9, 0.2, 0.5, 0.05, 0.7}
	for i, d := range durs {
		tr.Offer(mkTrace(fmt.Sprintf("t%d", i), 200, float64(i), d), false)
	}
	// True top-4 slowest: 0.9, 0.7, 0.5, 0.3.
	for _, id := range []string{"t2", "t6", "t4", "t0"} {
		if tr.Lookup(id) == nil {
			t.Errorf("top-4 slowest %q not retained", id)
		}
	}
	for _, id := range []string{"t1", "t3", "t5"} {
		if tr.Lookup(id) != nil {
			t.Errorf("%q should have been evicted from the slow class", id)
		}
	}
}

func TestTraceRingErrFIFO(t *testing.T) {
	tr := NewTraceRing(2, 2)
	// Zero-duration errors never rank in the slow class once it holds
	// two slower entries, so the error class FIFO is isolated.
	tr.Offer(mkTrace("s0", 200, 0, 1.0), false)
	tr.Offer(mkTrace("s1", 200, 0, 2.0), false)
	for i := 0; i < 3; i++ {
		tr.Offer(mkTrace(fmt.Sprintf("e%d", i), 500, float64(i), 0), false)
	}
	if tr.Lookup("e0") != nil {
		t.Error("oldest error should have fallen out of the FIFO")
	}
	if tr.Lookup("e1") == nil || tr.Lookup("e2") == nil {
		t.Error("newest errors must be retained")
	}
}

func TestTraceStageSum(t *testing.T) {
	tr := mkTrace("x", 200, 1.0, 0.010)
	tr.Stage("queue", 1.000, 1.001)
	tr.Stage("kernel", 1.002, 1.008)
	tr.Stage("encode", 1.008, 1.009)
	if sum := tr.StageSum(); sum > tr.Duration() {
		t.Fatalf("stage sum %g exceeds root duration %g", sum, tr.Duration())
	}
}

func TestNilTraceRingAndTrace(t *testing.T) {
	var tr *TraceRing
	var st *ServeTrace
	st.Stage("queue", 0, 1) // must not panic
	if retained, _, _ := tr.Offer(mkTrace("x", 200, 0, 1), true); retained {
		t.Error("nil ring retained a trace")
	}
	if tr.Lookup("x") != nil {
		t.Error("nil ring resolved a trace")
	}
}

func TestRecorderExemplars(t *testing.T) {
	r := New()
	name := HistRouteSeconds("assign")
	r.Observe(0, name, 0.003)
	r.SetExemplar(name, 0.003, "trace-a")
	r.SetExemplar(name, 123, "trace-overflow") // beyond the last bound
	r.SetExemplar(name, 0.003, "")             // empty ID: no-op

	ex := r.Exemplars(name)
	bounds := HistogramBounds(name)
	if len(ex) != len(bounds)+1 {
		t.Fatalf("exemplar slots = %d, want %d", len(ex), len(bounds)+1)
	}
	i := BucketIndex(bounds, 0.003)
	if ex[i].TraceID != "trace-a" || ex[i].Value != 0.003 || ex[i].Ts <= 0 {
		t.Fatalf("bucket %d exemplar = %+v", i, ex[i])
	}
	if ex[len(bounds)].TraceID != "trace-overflow" {
		t.Fatal("overflow bucket exemplar missing")
	}
	if r.Exemplars("no.such.hist") != nil {
		t.Error("unknown name returned exemplars")
	}
	var nilR *Recorder
	nilR.SetExemplar(name, 1, "x") // must not panic
	if nilR.Exemplars(name) != nil {
		t.Error("nil recorder returned exemplars")
	}
}
