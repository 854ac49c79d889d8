package ingest

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
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

	sent := &dataset.Matrix{D: dims} // every record appended so far
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
		sent.Values = append(sent.Values, vals...)
		want := batchHist(sent)
		if !reflect.DeepEqual(ing.hist.Domains, want.Domains) || ing.hist.Units != want.Units ||
			ing.hist.N != want.N || !reflect.DeepEqual(ing.hist.Counts, want.Counts) {
			t.Fatalf("append %d (%d records): the histogram differs from a batch build", i, sent.NumRecords())
		}

		if _, err := ing.Refit(); err != nil {
			t.Fatal(err)
		}
		got, _, err := modelio.LoadMeta(ing.Path())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAsBatch(ing, got, sent); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// sameAsBatch reports how the model a refit wrote, and the populations
// ing kept from it, differ from a from-scratch fit of the first got.N
// records of sent. Call it on the goroutine that ran the refit.
func sameAsBatch(ing *Ingester, got *mafia.Result, sent *dataset.Matrix) error {
	var fresh mafia.Populations
	batch, err := mafia.Run(sent.Slice(0, got.N), mafia.Config{Populations: &fresh})
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got.Grid.Spec(), batch.Grid.Spec()) || !reflect.DeepEqual(got.Clusters, batch.Clusters) {
		return fmt.Errorf("the refit model over %d records differs from a batch fit", got.N)
	}
	if ing.pops.N != fresh.N || !reflect.DeepEqual(ing.pops.Levels, fresh.Levels) {
		return fmt.Errorf("the populations kept from a refit over %d records differ from a from-scratch fit's", got.N)
	}
	return nil
}

// TestRefitDuringAppends refits on one goroutine while another appends
// a stream spanning several blocks. A refit reads a frozen view of the
// records held when it began, so its model and the populations it
// leaves must be a batch fit's over exactly that prefix, however far
// the appends have gone by the time it scans.
func TestRefitDuringAppends(t *testing.T) {
	const dims = 5
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     dims,
		Records:  3*blockRecords + 2000,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{1, 3}, []dataset.Range{{Lo: 40, Hi: 55}, {Lo: 40, Hi: 55}}, 0)},
		Seed:     41,
	})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := New(dims, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if err := ing.Append(m.Values[:100*dims], 100); err != nil {
		t.Fatal(err)
	}

	// The appender waits for one more refit every 100 appends, so refits
	// keep landing while the stream grows; done closes after its last
	// append, abort releases it if the refitting side fails.
	const gate = 100
	refitted := make(chan struct{}, 1)
	done, abort := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(abort)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, lo := 1, 100; lo < m.NumRecords(); i++ {
			hi := min(m.NumRecords(), lo+1+i%37)
			if err := ing.Append(m.Values[lo*dims:hi*dims], hi-lo); err != nil {
				t.Error(err)
				return
			}
			lo = hi
			if i%gate == 0 {
				select {
				case <-refitted:
				case <-abort:
					return
				}
			}
		}
	}()

	for refits, last := 1, false; !last; refits++ {
		select {
		case <-done:
			last = true // one more refit, over the whole stream
		default:
		}
		if _, err := ing.Refit(); err != nil {
			t.Fatal(err)
		}
		got, _, err := modelio.LoadMeta(ing.Path())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAsBatch(ing, got, m); err != nil {
			t.Fatalf("refit %d: %v", refits, err)
		}
		if last && got.N != m.NumRecords() {
			t.Fatalf("the last refit covered %d of %d records", got.N, m.NumRecords())
		}
		select {
		case refitted <- struct{}{}:
		default:
		}
	}
}

// TestBufferBlocksHoldRecordsOnce appends chunks of 1 to 3000 records
// and checks after each that the buffer holds exactly the records
// appended, in blocks whose capacity exceeds them by at most one
// block, and that a block, once full, never moves.
func TestBufferBlocksHoldRecordsOnce(t *testing.T) {
	const dims = 3
	ing, err := New(dims, Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	var sent []float64
	var full []*float64 // each full block's first value, when first seen full
	for i := 0; len(sent) < 4*blockRecords*dims; i++ {
		n := 1 + (i*1237)%3000
		chunk := make([]float64, n*dims)
		for p := range chunk {
			chunk[p] = float64(len(sent) + p)
		}
		if err := ing.Append(chunk, n); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, chunk...)

		capacity := 0
		var held []float64
		for k, blk := range ing.buf.list {
			capacity += cap(blk)
			held = append(held, blk...)
			switch {
			case len(blk) < cap(blk):
				if k != len(ing.buf.list)-1 {
					t.Fatalf("append %d: block %d of %d is not full", i, k, len(ing.buf.list))
				}
			case k == len(full):
				full = append(full, &blk[0])
			case &blk[0] != full[k]:
				t.Fatalf("append %d: full block %d moved", i, k)
			}
		}
		if capacity > len(sent)+blockRecords*dims {
			t.Fatalf("append %d: blocks hold %d values for %d records", i, capacity, len(sent)/dims)
		}
		if !slices.Equal(held, sent) {
			t.Fatalf("append %d: the blocks do not hold the appended records in order", i)
		}
		if got := ing.buf.NumRecords(); got != len(sent)/dims {
			t.Fatalf("append %d: buffer reports %d records, want %d", i, got, len(sent)/dims)
		}
	}
}
