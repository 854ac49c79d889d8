package ingest

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/histogram"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
)

// batchHist is the histogram a batch fit of m bins with: domains from
// the observed ranges (NaN ignored), widened, [0,1) for a dimension
// with no other value, and the automatic unit count.
func batchHist(m *dataset.Matrix) *histogram.Hist {
	domains := make([]dataset.Range, m.D)
	for j := range domains {
		lo, hi := math.Inf(1), math.Inf(-1)
		for p := j; p < len(m.Values); p += m.D {
			if v := m.Values[p]; v < lo {
				lo = v
			}
			if v := m.Values[p]; v > hi {
				hi = v
			}
		}
		domains[j] = dataset.Widen(dataset.Range{Lo: lo, Hi: hi})
		if math.IsInf(lo, 1) { // no value but NaN
			domains[j] = dataset.Range{Lo: 0, Hi: 1}
		}
	}
	h := histogram.New(domains, mafia.AutoFineUnits(m.NumRecords()))
	h.AddChunk(m.Values, m.NumRecords())
	return h
}

// TestAppendRebinsGrownDimension streams records that widen one
// dimension's domain at a time, refitting after every append. After
// each append the ingester's histogram must be the one a batch fit
// builds over the whole buffer, and after each refit the model and the
// kept CDU populations must be a from-scratch fit's.
func TestAppendRebinsGrownDimension(t *testing.T) {
	const dims = 5
	base, _, err := datagen.Generate(datagen.Spec{
		Dims:     dims,
		Records:  15000,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{0, 2, 4}, []dataset.Range{{Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}}, 0)},
		Seed:     31,
	})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := New(dims, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	sizes := []int{1, 40, 700, 3000, 2}
	for i, at := 0, 0; at < base.NumRecords(); i++ {
		chunk := base.Slice(at, min(base.NumRecords(), at+sizes[i%len(sizes)]))
		at += chunk.NumRecords()
		vals := slices.Clone(chunk.Values)
		if i%2 == 1 {
			// Widen one dimension, in turn, past both ends.
			vals[(i/2)%dims] = 110 + float64(i)
			if i%4 == 1 {
				vals[(i/2)%dims] = -10 - float64(i)
			}
		}
		if i%3 == 0 {
			vals[len(vals)-1] = math.NaN()
		}
		if err := ing.Append(vals, chunk.NumRecords()); err != nil {
			t.Fatal(err)
		}
		want := batchHist(ing.buf)
		if !reflect.DeepEqual(ing.hist.Domains, want.Domains) || ing.hist.Units != want.Units ||
			ing.hist.N != want.N || !reflect.DeepEqual(ing.hist.Counts, want.Counts) {
			t.Fatalf("append %d (%d records): the histogram differs from a batch build", i, ing.buf.NumRecords())
		}

		if _, err := ing.Refit(); err != nil {
			t.Fatal(err)
		}
		got, _, err := modelio.LoadMeta(ing.Path())
		if err != nil {
			t.Fatal(err)
		}
		var fresh mafia.Populations
		batch, err := mafia.Run(ing.buf, mafia.Config{Populations: &fresh})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Grid.Spec(), batch.Grid.Spec()) || !reflect.DeepEqual(got.Clusters, batch.Clusters) {
			t.Fatalf("append %d: the refit model differs from a batch fit", i)
		}
		if ing.pops.N != fresh.N || !reflect.DeepEqual(ing.pops.Levels, fresh.Levels) {
			t.Fatalf("append %d: kept populations differ from a from-scratch fit's", i)
		}
	}
}
