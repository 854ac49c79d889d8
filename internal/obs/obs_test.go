package obs

import (
	"fmt"
	"sync"
	"testing"
)

// manualClock binds every rank to a hand-advanced clock so tests are
// fully deterministic.
type manualClock struct {
	mu  sync.Mutex
	now []float64
}

func bindManual(r *Recorder, p int) *manualClock {
	c := &manualClock{now: make([]float64, p)}
	r.BindRanks(p, func(rank int) float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.now[rank]
	})
	return c
}

func (c *manualClock) advance(rank int, dt float64) {
	c.mu.Lock()
	c.now[rank] += dt
	c.mu.Unlock()
}

func TestSpanNesting(t *testing.T) {
	r := New()
	clk := bindManual(r, 1)

	outer := r.Start(0, "outer")
	clk.advance(0, 1)
	inner := r.Start(0, "inner")
	clk.advance(0, 2)
	innermost := r.Start(0, "innermost").SetLevel(3)
	clk.advance(0, 3)
	innermost.End()
	inner.End()
	clk.advance(0, 1)
	outer.End()

	spans := r.Spans(0)
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	for i, want := range []struct {
		name            string
		depth, level    int
		start, duration float64
	}{
		{"outer", 0, 0, 0, 7},
		{"inner", 1, 0, 1, 5},
		{"innermost", 2, 3, 3, 3},
	} {
		s := spans[i]
		if s.Name != want.name || s.Depth != want.depth || s.Level != want.level {
			t.Errorf("span %d = %q depth %d level %d, want %q/%d/%d",
				i, s.Name, s.Depth, s.Level, want.name, want.depth, want.level)
		}
		if s.Start != want.start || s.Duration() != want.duration {
			t.Errorf("span %q: start %v dur %v, want %v/%v",
				s.Name, s.Start, s.Duration(), want.start, want.duration)
		}
	}
}

func TestEndOutOfOrderClosesNested(t *testing.T) {
	r := New()
	clk := bindManual(r, 1)
	outer := r.Start(0, "outer")
	r.Start(0, "leaked") // never explicitly ended
	clk.advance(0, 2)
	outer.End()
	outer.End() // double End is a no-op

	for _, s := range r.Spans(0) {
		if s.Duration() != 2 {
			t.Errorf("span %q duration %v, want 2", s.Name, s.Duration())
		}
	}
	if got := r.Start(0, "next").Depth; got != 0 {
		t.Errorf("stack not unwound: next span depth %d", got)
	}
}

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	s := r.Start(0, "x").SetLevel(2)
	s.End()
	r.Add(0, "c", 1)
	r.AddGlobal("g", 1)
	r.Comm(0, "reduce", 8, 0.1)
	r.BindRanks(4, nil)
	if r.Ranks() != 0 || r.Counter("c") != 0 || r.Spans(0) != nil {
		t.Error("nil recorder leaked state")
	}
	if got := r.Metrics(); len(got.Phases) != 0 {
		t.Error("nil recorder produced phases")
	}
	if s.Duration() != 0 {
		t.Error("nil span has a duration")
	}
}

// TestNilRecorderZeroAllocs pins the pay-for-use contract the hot
// paths rely on: with observability off (nil recorder) every
// instrumentation point is a pointer test, never an allocation.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(200, func() {
		s := r.Start(0, "x")
		r.Add(0, CtrDiskChunks, 1)
		r.AddGlobal(CtrDiskBytes, 1)
		r.Comm(0, KindReduce, 8, 0.1)
		r.Collective(CollRecord{Kind: KindReduce})
		s.End()
	})
	if allocs != 0 {
		t.Errorf("nil recorder allocates %.1f times per instrumentation round", allocs)
	}
}

func TestCommAttribution(t *testing.T) {
	r := New()
	clk := bindManual(r, 2)
	s0 := r.Start(0, "phase")
	r.Comm(0, "reduce", 100, 0.5)
	r.Comm(0, "gather", 50, 0.25)
	clk.advance(0, 1)
	s0.End()
	r.Comm(1, "reduce", 100, 0.5) // no open span on rank 1: counters only

	if s0.CommSeconds != 0.75 || s0.CommBytes != 150 {
		t.Errorf("span comm %v s / %d B, want 0.75/150", s0.CommSeconds, s0.CommBytes)
	}
	if got := r.Counter("comm.reduce.count"); got != 2 {
		t.Errorf("comm.reduce.count = %d, want 2", got)
	}
	if got := r.Counter("comm.reduce.bytes"); got != 200 {
		t.Errorf("comm.reduce.bytes = %d, want 200", got)
	}
}

func TestCountersSumAcrossRanksAndGlobal(t *testing.T) {
	r := New()
	bindManual(r, 3)
	for rank := 0; rank < 3; rank++ {
		r.Add(rank, "records", int64(10*(rank+1)))
	}
	r.AddGlobal("records", 7)
	if got := r.Counter("records"); got != 67 {
		t.Errorf("Counter(records) = %d, want 67", got)
	}
	m := r.Metrics()
	if m.Counters["records"] != 67 || len(m.PerRank) != 3 || m.PerRank[2]["records"] != 30 {
		t.Errorf("metrics counters wrong: %+v", m)
	}
}

// TestConcurrentRankRecording drives all recorder entry points from
// concurrent rank goroutines, the Real-mode access pattern; run with
// -race it proves the recorder is data-race-free.
func TestConcurrentRankRecording(t *testing.T) {
	const p = 8
	r := New()
	bindManual(r, p)
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := r.Start(rank, "phase").SetLevel(i % 5)
				r.Add(rank, "records", 3)
				r.AddGlobal("chunks", 1)
				r.Comm(rank, "reduce", 8, 0.001)
				s.End()
			}
		}(rank)
	}
	wg.Wait()
	if got := r.Counter("records"); got != p*200*3 {
		t.Errorf("records = %d, want %d", got, p*200*3)
	}
	if got := r.Counter("chunks"); got != p*200 {
		t.Errorf("chunks = %d, want %d", got, p*200)
	}
	for rank := 0; rank < p; rank++ {
		if got := len(r.Spans(rank)); got != 200 {
			t.Errorf("rank %d recorded %d spans, want 200", rank, got)
		}
	}
}

func TestUnboundRankFallsBackToWallClock(t *testing.T) {
	r := New()
	s := r.Start(5, "late")
	s.End()
	if s.Stop < s.Start {
		t.Errorf("fallback clock ran backwards: %v -> %v", s.Start, s.Stop)
	}
	if r.Ranks() != 6 {
		t.Errorf("Ranks() = %d, want 6", r.Ranks())
	}
}

func TestPhaseTableOrdersByTime(t *testing.T) {
	r := New()
	clk := bindManual(r, 1)
	for i, d := range []float64{1, 5, 2} {
		s := r.Start(0, fmt.Sprintf("p%d", i))
		clk.advance(0, d)
		s.End()
	}
	tbl := r.PhaseTable()
	if len(tbl.Rows) != 3 || tbl.Rows[0][0] != "p1" {
		t.Errorf("phase table not ordered by time: %v", tbl.Rows)
	}
}

func TestCurrentPhase(t *testing.T) {
	var nilRec *Recorder
	if got := nilRec.CurrentPhase(0); got != "" {
		t.Errorf("nil recorder CurrentPhase = %q", got)
	}
	r := New()
	if got := r.CurrentPhase(0); got != "" {
		t.Errorf("no spans: CurrentPhase = %q", got)
	}
	outer := r.Start(0, "run")
	inner := r.Start(0, "populate")
	if got := r.CurrentPhase(0); got != "populate" {
		t.Errorf("CurrentPhase = %q, want %q", got, "populate")
	}
	if got := r.CurrentPhase(1); got != "" {
		t.Errorf("other rank CurrentPhase = %q", got)
	}
	inner.End()
	if got := r.CurrentPhase(0); got != "run" {
		t.Errorf("after inner End: CurrentPhase = %q, want %q", got, "run")
	}
	outer.End()
	if got := r.CurrentPhase(0); got != "" {
		t.Errorf("after all End: CurrentPhase = %q", got)
	}
	if got := r.CurrentPhase(99); got != "" {
		t.Errorf("unknown rank CurrentPhase = %q", got)
	}
}
