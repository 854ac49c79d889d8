package sp2

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Procs: 0}, func(*Comm) error { return nil }); err == nil {
		t.Error("Procs=0: want error")
	}
	if _, err := Run(Config{Procs: 2, LatencySec: -1}, func(*Comm) error { return nil }); err == nil {
		t.Error("negative latency: want error")
	}
}

func TestRankAndSize(t *testing.T) {
	const p = 4
	seen := make([]bool, p)
	_, err := Run(Config{Procs: p}, func(c *Comm) error {
		if c.Size() != p {
			return fmt.Errorf("Size = %d", c.Size())
		}
		seen[c.Rank()] = true // Sim mode serializes; safe
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range seen {
		if !s {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestAllreduceSumI64(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		_, err := Run(Config{Procs: p}, func(c *Comm) error {
			x := []int64{int64(c.Rank()), 1, int64(c.Rank() * 10)}
			c.AllreduceSumI64(x)
			wantSum0 := int64(p * (p - 1) / 2)
			if x[0] != wantSum0 || x[1] != int64(p) || x[2] != wantSum0*10 {
				return fmt.Errorf("p=%d rank %d: sum = %v", p, c.Rank(), x)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

func TestAllreduceOrBool(t *testing.T) {
	const p = 4
	_, err := Run(Config{Procs: p}, func(c *Comm) error {
		x := make([]bool, p+1)
		x[c.Rank()] = true // each rank sets its own flag
		c.AllreduceOrBool(x)
		for r := 0; r < p; r++ {
			if !x[r] {
				return fmt.Errorf("rank %d: OR lost flag %d", c.Rank(), r)
			}
		}
		if x[p] {
			return fmt.Errorf("rank %d: OR invented flag", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestAllreduceRepeated(t *testing.T) {
	// Consecutive collectives must not bleed results into each other.
	_, err := Run(Config{Procs: 3}, func(c *Comm) error {
		for round := 1; round <= 5; round++ {
			x := []int64{int64(round)}
			c.AllreduceSumI64(x)
			if x[0] != int64(3*round) {
				return fmt.Errorf("round %d: got %d", round, x[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestGatherConcatBcastOrder(t *testing.T) {
	const p = 4
	_, err := Run(Config{Procs: p}, func(c *Comm) error {
		// Rank r contributes r+1 bytes of value r.
		local := make([]byte, c.Rank()+1)
		for i := range local {
			local[i] = byte(c.Rank())
		}
		out := c.GatherConcatBcast(local)
		want := 0
		for r := 0; r < p; r++ {
			want += r + 1
		}
		if len(out) != want {
			return fmt.Errorf("len = %d, want %d", len(out), want)
		}
		idx := 0
		for r := 0; r < p; r++ {
			for i := 0; i <= r; i++ {
				if out[idx] != byte(r) {
					return fmt.Errorf("out[%d] = %d, want %d (rank order violated)", idx, out[idx], r)
				}
				idx++
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestBcastBytes(t *testing.T) {
	_, err := Run(Config{Procs: 3}, func(c *Comm) error {
		var data []byte
		if c.Rank() == 1 {
			data = []byte{5, 6, 7}
		}
		got := c.BcastBytes(1, data)
		if len(got) != 3 || got[0] != 5 || got[2] != 7 {
			return fmt.Errorf("rank %d: bcast got %v", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestBarrier(t *testing.T) {
	_, err := Run(Config{Procs: 4}, func(c *Comm) error {
		for i := 0; i < 3; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := Run(Config{Procs: 4}, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		// Other ranks block in a collective; the error must release them.
		c.Barrier()
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
}

func TestPanicPropagates(t *testing.T) {
	_, err := Run(Config{Procs: 3}, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("kaboom")
		}
		c.Barrier()
		return nil
	})
	if err == nil {
		t.Fatal("want error from panic")
	}
}

func TestLengthMismatchFails(t *testing.T) {
	_, err := Run(Config{Procs: 2}, func(c *Comm) error {
		x := make([]int64, 1+c.Rank()) // deliberately mismatched
		c.AllreduceSumI64(x)
		return nil
	})
	if err == nil {
		t.Fatal("mismatched Allreduce lengths: want error")
	}
}

func busyWork(iters int) float64 {
	s := 0.0
	for i := 0; i < iters; i++ {
		s += math.Sqrt(float64(i))
	}
	return s
}

func TestSimSpeedupOfDataParallelWork(t *testing.T) {
	// Total work fixed; each rank performs 1/p of it. The simulated
	// parallel time must shrink roughly like 1/p.
	const total = 8_000_000
	timeFor := func(p int) float64 {
		rep, err := Run(Config{Procs: p}, func(c *Comm) error {
			if busyWork(total/p) < 0 {
				return errors.New("impossible")
			}
			c.Barrier()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ParallelSeconds
	}
	t1 := timeFor(1)
	t4 := timeFor(4)
	speedup := t1 / t4
	if speedup < 2.5 || speedup > 6 {
		t.Errorf("sim speedup on 4 ranks = %.2f, want ~4", speedup)
	}
}

func TestSimChargesCommCost(t *testing.T) {
	const p = 4
	lat := 1e-3
	bw := 1e6
	rep, err := Run(Config{Procs: p, LatencySec: lat, BandwidthBytesPerSec: bw}, func(c *Comm) error {
		x := make([]int64, 1000) // 8000 bytes
		c.AllreduceSumI64(x)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCost := stages(p) * (lat + 8000/bw)
	if math.Abs(rep.CommSeconds-wantCost) > 1e-9 {
		t.Errorf("CommSeconds = %v, want %v", rep.CommSeconds, wantCost)
	}
	if rep.Collectives != 1 {
		t.Errorf("Collectives = %d, want 1", rep.Collectives)
	}
	if rep.BytesMoved != int64(8000*stages(p)) {
		t.Errorf("BytesMoved = %d", rep.BytesMoved)
	}
	// Every rank's clock includes the comm cost.
	for r, v := range rep.RankSeconds {
		if v < wantCost {
			t.Errorf("rank %d clock %v < comm cost %v", r, v, wantCost)
		}
	}
}

func TestSingleRankNoComm(t *testing.T) {
	rep, err := Run(Config{Procs: 1}, func(c *Comm) error {
		x := []int64{42}
		c.AllreduceSumI64(x)
		if x[0] != 42 {
			return fmt.Errorf("p=1 allreduce changed value: %d", x[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CommSeconds != 0 {
		t.Errorf("p=1 charged comm time %v", rep.CommSeconds)
	}
}

func TestRealModeCollectives(t *testing.T) {
	const p = 4
	rep, err := Run(Config{Procs: p, Mode: Real}, func(c *Comm) error {
		x := []int64{1}
		c.AllreduceSumI64(x)
		if x[0] != p {
			return fmt.Errorf("real mode sum = %d", x[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != Real || rep.ParallelSeconds <= 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestStages(t *testing.T) {
	cases := map[int]float64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 16: 4}
	for p, want := range cases {
		if got := stages(p); got != want {
			t.Errorf("stages(%d) = %v, want %v", p, got, want)
		}
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Run(Config{Procs: 4}, func(c *Comm) error {
			x := make([]int64, 256)
			c.AllreduceSumI64(x)
			return nil
		})
	}
}
