package histogram

import (
	"math"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/rng"
)

// randHist builds a histogram over random domains plus a matrix of
// records drawn to straddle the domains (including out-of-range values
// that exercise the clamping branches).
func randHist(r *rng.Source, n, d, units int) (*Hist, *dataset.Matrix) {
	domains := make([]dataset.Range, d)
	for i := range domains {
		lo := r.In(-100, 100)
		domains[i] = dataset.Range{Lo: lo, Hi: lo + r.In(0.5, 50)}
	}
	m := dataset.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			// 10% of values land outside the domain on either side.
			v := r.In(domains[j].Lo-0.1*domains[j].Width(), domains[j].Hi+0.1*domains[j].Width())
			row[j] = v
		}
	}
	// Sprinkle exact boundary values: bin edges are where a kernel
	// rewrite with different float association would first diverge.
	for i := 0; i < n/10; i++ {
		row := m.Row(r.Intn(n))
		j := r.Intn(d)
		u := r.Intn(units)
		row[j] = domains[j].Lo + domains[j].Width()*float64(u)/float64(units)
	}
	return New(domains, units), m
}

// TestKernelMatchesAddRecordOracle is the property test of the flat
// chunk kernel: for random domains, units, and records — boundary
// values included — AddChunk must produce bit-identical counts to the
// per-record AddRecord reference path. Chunks run past their n records,
// as a scanner's reused buffer does, and those values must be ignored.
func TestKernelMatchesAddRecordOracle(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(500)
		d := 1 + r.Intn(16)
		units := 1 + r.Intn(1000)
		h, m := randHist(r.Split(), n, d, units)
		oracle := New(h.Domains, units)
		for i := 0; i < n; i++ {
			oracle.AddRecord(m.Row(i))
		}
		chunk := append([]float64(nil), m.Values...)
		for i := r.Intn(3 * d); i >= 0; i-- {
			chunk = append(chunk, r.In(-1e3, 1e3), math.Inf(1))
		}
		h.AddChunk(chunk, n)
		if h.N != oracle.N {
			t.Fatalf("trial %d: N=%d, oracle %d", trial, h.N, oracle.N)
		}
		for dim := 0; dim < d; dim++ {
			for u := 0; u < units; u++ {
				if h.Counts[dim][u] != oracle.Counts[dim][u] {
					t.Fatalf("trial %d: counts[%d][%d] = %d, oracle %d",
						trial, dim, u, h.Counts[dim][u], oracle.Counts[dim][u])
				}
			}
		}
	}
}

// TestKernelSpecialValues pins the clamping semantics the oracle
// defines: NaN and -Inf land in unit 0, +Inf and v >= Hi in the last
// unit.
func TestKernelSpecialValues(t *testing.T) {
	domains := []dataset.Range{{Lo: 0, Hi: 10}}
	vals := []float64{math.NaN(), math.Inf(-1), math.Inf(1), -5, 0, 10, 15}
	h := New(domains, 5)
	oracle := New(domains, 5)
	for _, v := range vals {
		oracle.AddRecord([]float64{v})
	}
	h.AddChunk(vals, len(vals))
	for u := 0; u < 5; u++ {
		if h.Counts[0][u] != oracle.Counts[0][u] {
			t.Fatalf("unit %d: %d, oracle %d", u, h.Counts[0][u], oracle.Counts[0][u])
		}
	}
}

// TestParallelMatchesSerial checks AddSourceParallel produces exactly
// AddSource's histogram for every worker count, including workers >
// records and chunk sizes that do not divide the record count.
func TestParallelMatchesSerial(t *testing.T) {
	r := rng.New(7)
	h, m := randHist(r, 1003, 5, 40)
	if err := h.AddSource(m, 97); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 3, 8, 2000} {
		for _, chunk := range []int{1, 97, 5000} {
			hp := New(h.Domains, h.Units)
			if _, err := hp.AddSourceParallel(m, chunk, workers); err != nil {
				t.Fatal(err)
			}
			if hp.N != h.N {
				t.Fatalf("workers=%d chunk=%d: N=%d, want %d", workers, chunk, hp.N, h.N)
			}
			for dim := range h.Counts {
				for u := range h.Counts[dim] {
					if hp.Counts[dim][u] != h.Counts[dim][u] {
						t.Fatalf("workers=%d chunk=%d: counts[%d][%d] = %d, want %d",
							workers, chunk, dim, u, hp.Counts[dim][u], h.Counts[dim][u])
					}
				}
			}
		}
	}
}

// BenchmarkAddChunk measures the flat kernel against the per-record
// reference path on one in-memory chunk.
func BenchmarkAddChunk(b *testing.B) {
	r := rng.New(1)
	const n, d, units = 8192, 10, 1000
	h, m := randHist(r, n, d, units)
	b.Run("flat", func(b *testing.B) {
		b.SetBytes(int64(n * d * 8))
		for i := 0; i < b.N; i++ {
			h.AddChunk(m.Values, n)
		}
	})
	b.Run("record-oracle", func(b *testing.B) {
		b.SetBytes(int64(n * d * 8))
		for i := 0; i < b.N; i++ {
			for rI := 0; rI < n; rI++ {
				h.AddRecord(m.Row(rI))
			}
		}
	})
}
