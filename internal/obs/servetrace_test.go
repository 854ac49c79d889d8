package obs

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// t0 anchors the synthetic records of these tests.
var t0 = time.Unix(1_700_000_000, 0)

// at returns t0 plus s seconds.
func at(s float64) time.Time { return t0.Add(time.Duration(s * 1e9)) }

func mkTrace(id string, status int, start, dur float64) *ServeTrace {
	return &ServeTrace{ID: id, Route: "assign", Status: status, Start: at(start), End: at(start).Add(time.Duration(dur * 1e9))}
}

func TestTraceRingRetentionClasses(t *testing.T) {
	tr := NewTraceRing(2)

	// Unsampled 200s are dropped unless slow. Fill the slow class first
	// with two slow traces so a fast one has no tail claim.
	for i, dur := range []float64{1.0, 2.0} {
		if retained, slow := tr.Offer(mkTrace(fmt.Sprintf("slow%d", i), 200, float64(i), dur), false); !retained || !slow {
			t.Fatalf("slow trace %d: retained=%v slow=%v", i, retained, slow)
		}
	}
	if retained, _ := tr.Offer(mkTrace("fast", 200, 10, 0.001), false); retained {
		t.Fatal("fast unsampled 200 should not be retained")
	}
	// Errors are always retained, even when fast and unsampled.
	if retained, slow := tr.Offer(mkTrace("err", 404, 11, 0.001), false); !retained || slow {
		t.Fatal("non-2xx trace must always be retained")
	}
	// Sampled ordinary requests are retained via the head-sample class.
	if retained, slow := tr.Offer(mkTrace("samp", 200, 12, 0.001), true); !retained || slow {
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
		if traces[i].Start.Before(traces[i-1].Start) {
			t.Fatal("snapshot not ordered by start time")
		}
	}
}

func TestTraceRingSlowTopCap(t *testing.T) {
	tr := NewTraceRing(4)
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
	tr := NewTraceRing(2)
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
	tr.Mark(StageQueue, at(1.000), at(1.001))
	tr.Mark(StageKernel, at(1.002), at(1.008))
	tr.Mark(StageEncode, at(1.008), at(1.009))
	if sum := tr.StageSum(); sum > tr.Duration() {
		t.Fatalf("stage sum %g exceeds root duration %g", sum, tr.Duration())
	}
	if tr.Stages[StageDecode].Ran() || !tr.Stages[StageKernel].Ran() {
		t.Error("Ran does not reflect which stages were marked")
	}
}

// TestSlowRingProperty: after any offer sequence, the ring's slow
// class is exactly the cap slowest records seen so far, sorted slowest
// first.
func TestSlowRingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cap := 1 + rng.Intn(8)
		n := rng.Intn(40)
		tr := NewTraceRing(cap)
		var all []*ServeTrace
		for i := 0; i < n; i++ {
			e := mkTrace(fmt.Sprintf("r%d", i), 200, 0, rng.Float64())
			all = append(all, e)
			tr.Offer(e, false)
		}
		want := append([]*ServeTrace(nil), all...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Duration() > want[j].Duration() })
		if len(want) > cap {
			want = want[:cap]
		}
		got := tr.Slowest()
		if len(got) != len(want) {
			t.Fatalf("trial %d (cap %d, n %d): slow class has %d entries, want %d",
				trial, cap, n, len(got), len(want))
		}
		for i := range got {
			if got[i].Duration() != want[i].Duration() {
				t.Fatalf("trial %d (cap %d): entry %d = %.6f, want %.6f (true top-%d, sorted)",
					trial, cap, i, got[i].Duration(), want[i].Duration(), cap)
			}
		}
	}
}

// TestSlowRingConcurrent hammers Offer and Slowest from many
// goroutines; run under -race this is the data-race regression test,
// and afterwards the slow class must hold the true top-cap of
// everything offered.
func TestSlowRingConcurrent(t *testing.T) {
	const (
		cap        = 8
		writers    = 8
		perWriter  = 200
		readers    = 4
		readRounds = 100
	)
	tr := NewTraceRing(cap)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				tr.Offer(mkTrace(fmt.Sprintf("w%d-%d", w, i), 200, 0, rng.Float64()), false)
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readRounds; i++ {
				snap := tr.Slowest()
				if len(snap) > cap {
					t.Errorf("slow class exceeded cap: %d > %d", len(snap), cap)
					return
				}
				for j := 1; j < len(snap); j++ {
					if snap[j].Duration() > snap[j-1].Duration() {
						t.Error("slow class not sorted slowest first")
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	// Deterministic writers: recompute the true top-cap offline.
	var all []float64
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			all = append(all, mkTrace("", 200, 0, rng.Float64()).Duration())
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	got := tr.Slowest()
	if len(got) != cap {
		t.Fatalf("final slow class has %d entries, want %d", len(got), cap)
	}
	for i, e := range got {
		if e.Duration() != all[i] {
			t.Errorf("final entry %d = %.9f, want %.9f", i, e.Duration(), all[i])
		}
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
