package ingest_test

import (
	"reflect"
	"testing"
	"time"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/ingest"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// genData returns a 5-dim matrix with one embedded subspace cluster.
func genData(t *testing.T, records int, seed uint64) *dataset.Matrix {
	t.Helper()
	ext := []dataset.Range{{Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}}
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     5,
		Records:  records,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{0, 2, 4}, ext, 0)},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameModel asserts the streamed and batch results describe the same
// model: record count, grid geometry, and cluster covers. Timing
// fields are instrumentation and excluded.
func sameModel(t *testing.T, got, want *mafia.Result) {
	t.Helper()
	if got.N != want.N {
		t.Errorf("N: %d vs %d", got.N, want.N)
	}
	if !reflect.DeepEqual(got.Grid.Spec(), want.Grid.Spec()) {
		t.Error("grid spec differs from the batch fit")
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("clusters: %d vs %d", len(got.Clusters), len(want.Clusters))
	}
	for i := range want.Clusters {
		if got.Clusters[i].String() != want.Clusters[i].String() {
			t.Errorf("cluster %d: %v vs %v", i, got.Clusters[i], want.Clusters[i])
		}
		if got.Clusters[i].DNF(got.Grid) != want.Clusters[i].DNF(want.Grid) {
			t.Errorf("cluster %d DNF differs", i)
		}
	}
}

// TestRefitMatchesBatch streams a data set in uneven chunks — the
// later chunks widen the observed domains, forcing histogram rebuilds,
// and span the ingester's 8192-record blocks: the stream fills three
// and part of a fourth — and checks the refit model is the one a batch
// fit over the same records computes.
func TestRefitMatchesBatch(t *testing.T) {
	m := genData(t, 26000, 11)
	ing, err := ingest.New(5, ingest.Config{Dir: t.TempDir(), Model: "m.pmfm"})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	// Uneven chunk sizes so appends straddle record boundaries in
	// different phases of the stream.
	step := 1
	for lo := 0; lo < m.NumRecords(); {
		hi := lo + step
		if hi > m.NumRecords() {
			hi = m.NumRecords()
		}
		s := m.Slice(lo, hi)
		if err := ing.Append(s.Values, s.NumRecords()); err != nil {
			t.Fatal(err)
		}
		lo = hi
		step = step*3 + 1
	}
	gen, err := ing.Refit()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Errorf("first refit wrote generation %d, want 1", gen)
	}

	got, meta, err := modelio.LoadMeta(ing.Path())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 {
		t.Errorf("file generation %d, want 1", meta.Generation)
	}
	want, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sameModel(t, got, want)

	st := ing.Stats()
	if st.Records != m.NumRecords() || st.Pending != 0 || st.Generation != 1 {
		t.Errorf("stats after refit: %+v", st)
	}

	// A second refit over the same records bumps the generation but
	// keeps the payload fingerprint (same model content).
	if _, err := ing.Refit(); err != nil {
		t.Fatal(err)
	}
	_, meta2, err := modelio.LoadMeta(ing.Path())
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Generation != 2 {
		t.Errorf("second refit generation %d, want 2", meta2.Generation)
	}
}

// TestAutoRefit checks the RefitEvery record threshold triggers a
// background refit without an explicit call.
func TestAutoRefit(t *testing.T) {
	m := genData(t, 2000, 12)
	rec := obs.New()
	ing, err := ingest.New(5, ingest.Config{
		Dir: t.TempDir(), RefitEvery: 1500, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	for lo := 0; lo < m.NumRecords(); lo += 500 {
		hi := lo + 500
		if hi > m.NumRecords() {
			hi = m.NumRecords()
		}
		s := m.Slice(lo, hi)
		if err := ing.Append(s.Values, s.NumRecords()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for ing.Stats().Generation == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background refit never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, meta, err := modelio.LoadMeta(ing.Path()); err != nil || meta.Generation == 0 {
		t.Fatalf("model file: meta=%+v err=%v", meta, err)
	}
	if rec.Counter(obs.CtrIngestRefits) == 0 {
		t.Error("ingest.refits counter not bumped")
	}
	if got := rec.Counter(obs.CtrIngestRecords); got != int64(m.NumRecords()) {
		t.Errorf("ingest.records = %d, want %d", got, m.NumRecords())
	}
}

// TestRefitEmpty checks an empty ingester refuses to fit and counts
// the failure.
func TestRefitEmpty(t *testing.T) {
	rec := obs.New()
	ing, err := ingest.New(3, ingest.Config{Dir: t.TempDir(), Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if _, err := ing.Refit(); err == nil {
		t.Fatal("refit over zero records succeeded")
	}
	if rec.Counter(obs.CtrIngestRefitErrors) != 1 {
		t.Errorf("ingest.refit.errors = %d, want 1", rec.Counter(obs.CtrIngestRefitErrors))
	}
}

// TestClosedAppend checks Close stops the intake.
func TestClosedAppend(t *testing.T) {
	ing, err := ingest.New(2, ingest.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Append([]float64{1, 2}, 1); err == nil {
		t.Error("append after Close succeeded")
	}
}
