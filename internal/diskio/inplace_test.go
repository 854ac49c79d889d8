package diskio

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"runtime"
	"testing"

	"pmafia/internal/rng"
)

// specialValues are the float64s an in-place decode must carry bit for
// bit: NaNs with payloads (quiet, signalling, negative), signed zeros,
// infinities, subnormals and the extremes.
var specialValues = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN with a payload
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
	1, -2.5e-300,
}

// writeSpecial writes an n-record, d-dimensional v2 file in frames of
// frameRecs whose values cycle through specialValues mixed with
// random ones, and returns the file's bytes.
func writeSpecial(t *testing.T, path string, n, d, frameRecs int, r *rng.Source) []byte {
	t.Helper()
	w, err := CreateWithFrames(path, d, frameRecs)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := range rec {
			if k := i*d + j; k%3 == 0 {
				rec[j] = specialValues[(k/3)%len(specialValues)]
			} else {
				rec[j] = r.In(-1e6, 1e6)
			}
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestScanMatchesPerValueDecode is the oracle test of the in-place
// read: every value a scan returns must equal, bit for bit, a
// per-value binary.LittleEndian decode of the file's data bytes, for
// chunk sizes from one record to past the range and for ranges that
// start and end mid-frame.
func TestScanMatchesPerValueDecode(t *testing.T) {
	const n, d, frameRecs = 100, 3, 8
	path := tmpPath(t, "special.pmaf")
	raw := writeSpecial(t, path, n, d, frameRecs, rng.New(3))
	dataOff := headerFixedV2 + 16*d
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{0, n}, {3, n}, {0, 93}, {3, 93}, {19, 21}, {16, 40}, {50, 50}}
	for _, rg := range ranges {
		lo, hi := rg[0], rg[1]
		for _, chunk := range []int{1, 7, 8192, hi - lo + 5} {
			sc := f.ScanRange(lo, hi, chunk)
			next := lo
			for {
				vals, k := sc.Next()
				if k == 0 {
					break
				}
				for i, v := range vals[:k*d] {
					p := dataOff + 8*(next*d+i)
					want := binary.LittleEndian.Uint64(raw[p:])
					if got := math.Float64bits(v); got != want {
						t.Fatalf("range [%d,%d) chunk %d: value %d of record %d = %#x, file holds %#x",
							lo, hi, chunk, i%d, next+i/d, got, want)
					}
				}
				next += k
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("range [%d,%d) chunk %d: %v", lo, hi, chunk, err)
			}
			sc.Close()
			if next != hi {
				t.Fatalf("range [%d,%d) chunk %d: scanned to record %d", lo, hi, chunk, next)
			}
		}
	}
}

// TestShardScansVerifyEveryFrame is the property behind sharded fits:
// when p ranks scan the ShareBounds shares of a v2 file and every
// share spans a frame boundary, a bit flipped anywhere in the data
// section fails at least one rank's ScanRange with a CorruptionError —
// including a bit in a frame that straddles a cut.
func TestShardScansVerifyEveryFrame(t *testing.T) {
	r := rng.New(20)
	type shape struct{ n, d, frameRecs, p int }
	// 22 records in frames of 4 over two ranks: the cut at record 11
	// splits frame 2 (records 8..11).
	shapes := []shape{{22, 2, 4, 2}}
	for len(shapes) < 40 {
		s := shape{d: 1 + r.Intn(3), frameRecs: 2 + r.Intn(7), p: 2 + r.Intn(4)}
		s.n = s.p*s.frameRecs + r.Intn(6*s.p*s.frameRecs)
		spans := true
		for rank := 0; rank < s.p; rank++ {
			lo, hi := ShareBounds(s.n, rank, s.p)
			spans = spans && hi > lo && (hi-1)/s.frameRecs > lo/s.frameRecs
		}
		if spans {
			shapes = append(shapes, s)
		}
	}
	for _, s := range shapes {
		path := tmpPath(t, "shards.pmaf")
		dataOff := writeV2Small(t, path, s.n, s.d, s.frameRecs)
		f, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		// scanShards returns the first error of each rank's scan.
		scanShards := func(chunk int) []error {
			errs := make([]error, s.p)
			for rank := range errs {
				lo, hi := ShareBounds(s.n, rank, s.p)
				sc := f.ScanRange(lo, hi, chunk)
				for {
					if _, k := sc.Next(); k == 0 {
						break
					}
				}
				errs[rank] = sc.Err()
				sc.Close()
			}
			return errs
		}
		for rank, err := range scanShards(3) {
			if err != nil {
				t.Fatalf("%+v: clean file, rank %d: %v", s, rank, err)
			}
		}
		for rec := 0; rec < s.n; rec++ {
			off := dataOff + int64(8*(rec*s.d+r.Intn(s.d))+r.Intn(8))
			flipBitOnDisk(t, path, off)
			caught := false
			for _, err := range scanShards(1 + r.Intn(s.frameRecs+2)) {
				var ce *CorruptionError
				caught = caught || errors.As(err, &ce)
			}
			flipBitOnDisk(t, path, off)
			if !caught {
				t.Fatalf("%+v: a bit flipped in record %d (frame %d) passed every rank's scan",
					s, rec, rec/s.frameRecs)
			}
		}
	}
}

// TestScanRangeAllocatesOneChunkBuffer pins the in-place read: a
// ScanRange over a v2 file allocates one chunk buffer, which the
// file's bytes are read into and decoded in, plus its handle.
func TestScanRangeAllocatesOneChunkBuffer(t *testing.T) {
	const n, d, chunk = 5000, 10, 1024
	path := tmpPath(t, "alloc.pmaf")
	if err := WriteSource(path, makeMatrix(n, d)); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	scan := func() {
		// Ends mid-frame, so the boundary-frame read is counted too.
		sc := f.ScanRange(100, n-900, chunk)
		for {
			if _, k := sc.Next(); k == 0 {
				break
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		sc.Close()
	}
	scan()
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		scan()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(chunk*d*8 + 4096); least > limit {
		t.Fatalf("ScanRange allocated %d bytes, want at most %d (one %d-record chunk buffer)", least, limit, chunk)
	}
}

// TestScanRangeBufferSizedByRange: a scan's buffer holds at most its
// range or the frame tail it verifies past the range, never a whole
// chunk more. A 0-record, 65,000-dimensional file scans in 64-record
// chunks without a 33 MB buffer; a 200-record range of a v2 file
// allocates 200 records, and one that ends inside a frame it starts
// also the rest of that frame.
func TestScanRangeBufferSizedByRange(t *testing.T) {
	wide := tmpPath(t, "wide.pmaf")
	writeV1(t, wide, 65000, nil)
	const n, d = 5000, 10
	narrow := tmpPath(t, "narrow.pmaf")
	if err := WriteSource(narrow, makeMatrix(n, d)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		path          string
		lo, hi, chunk int
		bufRecords    int
	}{
		{"empty wide file", wide, 0, 0, 64, 0},
		{"range inside a frame", narrow, 100, 300, 1024, 200},
		{"range ending inside its frame", narrow, DefaultFrameRecords, DefaultFrameRecords + 200, 1024, n - DefaultFrameRecords - 200},
	} {
		f, err := Open(c.path)
		if err != nil {
			t.Fatal(err)
		}
		scan := func() {
			sc := f.ScanRange(c.lo, c.hi, c.chunk)
			for {
				if _, k := sc.Next(); k == 0 {
					break
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			sc.Close()
		}
		scan()
		var before, after runtime.MemStats
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			scan()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(c.bufRecords*f.Dims()*8 + 4096); least > limit {
			t.Errorf("%s: ScanRange(%d, %d, %d) allocated %d bytes, want at most %d (%d records)",
				c.name, c.lo, c.hi, c.chunk, least, limit, c.bufRecords)
		}
	}
}
