package diskio

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"pmafia/internal/dataset"
)

func tmpPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func makeMatrix(n, d int) *dataset.Matrix {
	m := dataset.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float64(i*d + j)
		}
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	path := tmpPath(t, "a.pmaf")
	m := makeMatrix(100, 4)
	if err := WriteSource(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dims() != 4 || f.NumRecords() != 100 {
		t.Fatalf("dims=%d n=%d", f.Dims(), f.NumRecords())
	}
	sc := f.Scan(7)
	defer sc.Close()
	var got []float64
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		got = append(got, chunk[:n*4]...)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != 400 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("value[%d] = %v", i, v)
		}
	}
}

func TestDomainsInHeader(t *testing.T) {
	path := tmpPath(t, "b.pmaf")
	m, _ := dataset.FromRows([][]float64{{-3, 100}, {7, 50}, {0, 75}})
	if err := WriteSource(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	doms := f.Domains()
	if doms[0].Lo != -3 || doms[1].Lo != 50 {
		t.Errorf("domain lows: %v", doms)
	}
	if !doms[0].Contains(7) || !doms[1].Contains(100) {
		t.Errorf("domains must contain observed maxima (half-open widening): %v", doms)
	}
}

func TestScanRange(t *testing.T) {
	path := tmpPath(t, "c.pmaf")
	if err := WriteSource(path, makeMatrix(10, 2)); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sc := f.ScanRange(3, 7, 2)
	defer sc.Close()
	var got []float64
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		got = append(got, chunk[:n*2]...)
	}
	if len(got) != 8 || got[0] != 6 || got[7] != 13 {
		t.Errorf("range scan values: %v", got)
	}
}

func TestScanRangeClamped(t *testing.T) {
	path := tmpPath(t, "d.pmaf")
	if err := WriteSource(path, makeMatrix(5, 1)); err != nil {
		t.Fatal(err)
	}
	f, _ := Open(path)
	sc := f.ScanRange(-2, 99, 10)
	defer sc.Close()
	total := 0
	for {
		_, n := sc.Next()
		if n == 0 {
			break
		}
		total += n
	}
	if total != 5 {
		t.Errorf("clamped scan read %d records, want 5", total)
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	// missing file
	if _, err := Open(filepath.Join(dir, "nope.pmaf")); err == nil {
		t.Error("missing file: want error")
	}
	// bad magic
	bad := filepath.Join(dir, "bad.pmaf")
	os.WriteFile(bad, []byte("NOPE.............................."), 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("bad magic: want error")
	}
	// truncated data section
	good := filepath.Join(dir, "good.pmaf")
	if err := WriteSource(good, makeMatrix(10, 3)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(good)
	os.WriteFile(bad, data[:len(data)-8], 0o644)
	if _, err := Open(bad); err == nil {
		t.Error("truncated: want error")
	}
}

func TestWriterWidthError(t *testing.T) {
	w, err := Create(tmpPath(t, "e.pmaf"), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]float64{1, 2}); err == nil {
		t.Error("wrong width: want error")
	}
}

func TestCreateInvalidDims(t *testing.T) {
	if _, err := Create(tmpPath(t, "f.pmaf"), 0); err == nil {
		t.Error("zero dims: want error")
	}
}

func TestShareBounds(t *testing.T) {
	// Shares must partition [0, n) exactly.
	for _, n := range []int{0, 1, 7, 100, 101} {
		for _, p := range []int{1, 2, 3, 16} {
			prev := 0
			total := 0
			for r := 0; r < p; r++ {
				lo, hi := ShareBounds(n, r, p)
				if lo != prev {
					t.Fatalf("n=%d p=%d rank=%d: lo=%d, want %d", n, p, r, lo, prev)
				}
				total += hi - lo
				prev = hi
			}
			if prev != n || total != n {
				t.Fatalf("n=%d p=%d: shares cover %d", n, p, total)
			}
		}
	}
}

// TestConcurrentRangeScans runs one scanner per simulated rank over
// disjoint shares of one File concurrently — the Real-mode shape — and
// checks every record is seen exactly once, by value.
func TestConcurrentRangeScans(t *testing.T) {
	path := tmpPath(t, "ranks.pmaf")
	const n, d, p = 503, 2, 4
	if err := WriteSource(path, makeMatrix(n, d)); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([][]int, p) // rank -> record indexes, by first value
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		go func(r int) {
			lo, hi := ShareBounds(n, r, p)
			sc := f.ScanRange(lo, hi, 37)
			defer sc.Close()
			for {
				chunk, cn := sc.Next()
				if cn == 0 {
					break
				}
				for i := 0; i < cn; i++ {
					seen[r] = append(seen[r], int(chunk[i*d])/d)
				}
			}
			errs <- sc.Err()
		}(r)
	}
	for r := 0; r < p; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	hits := make([]int, n)
	for _, recs := range seen {
		for _, i := range recs {
			hits[i]++
		}
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("record %d seen %d times, want once", i, h)
		}
	}
}

func TestStage(t *testing.T) {
	sharedPath := tmpPath(t, "shared.pmaf")
	if err := WriteSource(sharedPath, makeMatrix(10, 2)); err != nil {
		t.Fatal(err)
	}
	shared, err := Open(sharedPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const p = 3
	total := 0
	for r := 0; r < p; r++ {
		local, err := Stage(shared, dir, r, p)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := ShareBounds(10, r, p)
		if local.NumRecords() != hi-lo {
			t.Errorf("rank %d: staged %d records, want %d", r, local.NumRecords(), hi-lo)
		}
		total += local.NumRecords()
		// Local header must carry the *global* domains.
		doms := local.Domains()
		if doms[0].Lo != 0 {
			t.Errorf("rank %d: local domain lo = %v, want global 0", r, doms[0].Lo)
		}
		if !doms[1].Contains(19) {
			t.Errorf("rank %d: local domain %v must contain global max 19", r, doms[1])
		}
		// Verify shard content matches the shared range.
		sc := local.Scan(100)
		chunk, n := sc.Next()
		if n > 0 && chunk[0] != float64(lo*2) {
			t.Errorf("rank %d: first value %v, want %v", r, chunk[0], float64(lo*2))
		}
		sc.Close()
	}
	if total != 10 {
		t.Errorf("staged total %d records, want 10", total)
	}
}

func TestIOStats(t *testing.T) {
	path := tmpPath(t, "g.pmaf")
	if err := WriteSource(path, makeMatrix(100, 2)); err != nil {
		t.Fatal(err)
	}
	f, _ := Open(path)
	sc := f.Scan(10)
	for {
		_, n := sc.Next()
		if n == 0 {
			break
		}
	}
	sc.Close()
	st := f.StatsSnapshot()
	if st.Reads != 10 {
		t.Errorf("Reads = %d, want 10", st.Reads)
	}
	if st.BytesRead != 100*2*8 {
		t.Errorf("BytesRead = %d, want %d", st.BytesRead, 100*2*8)
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	path := tmpPath(t, "h.pmaf")
	w, err := Create(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRecords() != 0 {
		t.Errorf("n = %d", f.NumRecords())
	}
	sc := f.Scan(4)
	defer sc.Close()
	if _, n := sc.Next(); n != 0 {
		t.Errorf("empty file scan returned %d records", n)
	}
}

func BenchmarkScan(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.pmaf")
	if err := WriteSource(path, makeMatrix(10000, 10)); err != nil {
		b.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := f.Scan(1024)
		for {
			_, n := sc.Next()
			if n == 0 {
				break
			}
		}
		sc.Close()
	}
	b.SetBytes(10000 * 10 * 8)
}

func TestRoundTripProperty(t *testing.T) {
	// Arbitrary float payloads (including negative zero and denormals)
	// must survive the binary round trip bit-exactly.
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		rows := make([][]float64, len(vals))
		for i, v := range vals {
			if v != v { // NaN: skip, header min/max comparisons are undefined
				v = 0
			}
			rows[i] = []float64{v}
		}
		m, err := dataset.FromRows(rows)
		if err != nil {
			return false
		}
		path := filepath.Join(t.TempDir(), "q.pmaf")
		if err := WriteSource(path, m); err != nil {
			return false
		}
		file, err := Open(path)
		if err != nil {
			return false
		}
		sc := file.Scan(7)
		defer sc.Close()
		idx := 0
		for {
			chunk, n := sc.Next()
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				want := rows[idx][0]
				if chunk[i] != want && !(chunk[i] == 0 && want == 0) {
					return false
				}
				idx++
			}
		}
		return idx == len(rows) && sc.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPathAndNumRecordsAccessors(t *testing.T) {
	path := tmpPath(t, "acc.pmaf")
	w, err := Create(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumRecords() != 0 {
		t.Errorf("writer NumRecords = %d", w.NumRecords())
	}
	w.Append([]float64{1, 2})
	if w.NumRecords() != 1 {
		t.Errorf("writer NumRecords = %d after append", w.NumRecords())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Path() != path {
		t.Errorf("Path = %q", f.Path())
	}
}

func TestScanRangeOnMissingFile(t *testing.T) {
	path := tmpPath(t, "gone.pmaf")
	if err := WriteSource(path, makeMatrix(5, 1)); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Remove(path)
	sc := f.Scan(2)
	defer sc.Close()
	if _, n := sc.Next(); n != 0 {
		t.Error("scan of removed file yielded records")
	}
	if sc.Err() == nil {
		t.Error("scan of removed file: want error")
	}
}

func TestStageErrors(t *testing.T) {
	path := tmpPath(t, "s.pmaf")
	if err := WriteSource(path, makeMatrix(6, 1)); err != nil {
		t.Fatal(err)
	}
	f, _ := Open(path)
	// Unwritable local dir (a file in place of the directory).
	blocker := tmpPath(t, "blocker")
	os.WriteFile(blocker, []byte("x"), 0o644)
	if _, err := Stage(f, blocker, 0, 2); err == nil {
		t.Error("staging into a non-directory: want error")
	}
}
