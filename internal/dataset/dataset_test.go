package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRangeBasics(t *testing.T) {
	r := Range{Lo: 2, Hi: 5}
	if r.Width() != 3 {
		t.Errorf("Width = %v", r.Width())
	}
	if !r.Contains(2) || r.Contains(5) || !r.Contains(4.999) || r.Contains(1.9) {
		t.Error("Contains half-open semantics broken")
	}
	if !r.Overlaps(Range{4, 6}) || r.Overlaps(Range{5, 6}) || r.Overlaps(Range{0, 2}) {
		t.Error("Overlaps semantics broken")
	}
	if got := r.String(); got != "[2, 5)" {
		t.Errorf("String = %q", got)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dims() != 2 || m.NumRecords() != 3 {
		t.Fatalf("dims=%d n=%d", m.Dims(), m.NumRecords())
	}
	if m.Row(1)[0] != 3 || m.Row(2)[1] != 6 {
		t.Error("row content wrong")
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("no rows: want error")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("zero-dim: want error")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows: want error")
	}
}

func TestAppendPanicsOnWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong width did not panic")
		}
	}()
	NewMatrix(0, 3).Append([]float64{1, 2})
}

func TestMatrixScanChunks(t *testing.T) {
	m := NewMatrix(10, 3)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			m.Row(i)[j] = float64(i*3 + j)
		}
	}
	for _, chunk := range []int{1, 3, 4, 10, 100} {
		sc := m.Scan(chunk)
		var got []float64
		total := 0
		for {
			c, n := sc.Next()
			if n == 0 {
				break
			}
			if n > chunk {
				t.Fatalf("chunk size %d > requested %d", n, chunk)
			}
			got = append(got, c[:n*3]...)
			total += n
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
		if total != 10 || len(got) != 30 {
			t.Fatalf("chunk=%d: scanned %d records", chunk, total)
		}
		for i, v := range got {
			if v != float64(i) {
				t.Fatalf("chunk=%d: value[%d]=%v", chunk, i, v)
			}
		}
	}
}

func TestScanChunkZeroCoerced(t *testing.T) {
	m := NewMatrix(2, 1)
	sc := m.Scan(0)
	_, n := sc.Next()
	if n != 1 {
		t.Errorf("chunk 0 coerced: first Next n=%d, want 1", n)
	}
}

func TestSlice(t *testing.T) {
	m, _ := FromRows([][]float64{{0}, {1}, {2}, {3}})
	s := m.Slice(1, 3)
	if s.NumRecords() != 2 || s.Row(0)[0] != 1 || s.Row(1)[0] != 2 {
		t.Errorf("Slice wrong: %+v", s)
	}
	// shares storage
	s.Row(0)[0] = 42
	if m.Row(1)[0] != 42 {
		t.Error("Slice does not alias parent storage")
	}
}

func TestDomains(t *testing.T) {
	nan := math.NaN()
	m, _ := FromRows([][]float64{{1, -5, nan, nan}, {3, 0, nan, 4}, {2, 10, nan, nan}})
	doms, err := Domains(m)
	if err != nil {
		t.Fatal(err)
	}
	if doms[0].Lo != 1 || doms[1].Lo != -5 {
		t.Errorf("lows wrong: %v", doms)
	}
	// Half-open widening: max must be inside.
	if !doms[0].Contains(3) || !doms[1].Contains(10) {
		t.Errorf("domain does not contain max: %v", doms)
	}
	// NaN is ignored; a dimension with no other value gets [0, 1), as in
	// a fit's own domain pass.
	if doms[2] != (Range{Lo: 0, Hi: 1}) {
		t.Errorf("all-NaN dimension: domain %v, want [0, 1)", doms[2])
	}
	if doms[3] != Widen(Range{Lo: 4, Hi: 4}) {
		t.Errorf("dimension with one value besides NaN: domain %v", doms[3])
	}
}

func TestDomainsZeroWidth(t *testing.T) {
	m, _ := FromRows([][]float64{{7}, {7}})
	doms, err := Domains(m)
	if err != nil {
		t.Fatal(err)
	}
	if doms[0].Width() <= 0 {
		t.Errorf("constant dim got non-positive width: %v", doms[0])
	}
	if !doms[0].Contains(7) {
		t.Errorf("constant dim domain does not contain the value: %v", doms[0])
	}
}

func TestDomainsEmpty(t *testing.T) {
	if _, err := Domains(NewMatrix(0, 2)); err == nil {
		t.Error("empty source: want error")
	}
}

func TestDomainsProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		rows := make([][]float64, len(vals))
		for i, v := range vals {
			if v != v || v > 1e300 || v < -1e300 { // skip NaN/Inf-ish
				v = 0
			}
			rows[i] = []float64{v}
			vals[i] = v
		}
		m, err := FromRows(rows)
		if err != nil {
			return false
		}
		doms, err := Domains(m)
		if err != nil {
			return false
		}
		for _, v := range vals {
			if !doms[0].Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	m, _ := FromRows([][]float64{{1.5, -2}, {3.25, 4}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	m2, names, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" {
		t.Errorf("names = %v", names)
	}
	if m2.NumRecords() != 2 || m2.Row(0)[0] != 1.5 || m2.Row(1)[1] != 4 {
		t.Errorf("round trip wrong: %+v", m2)
	}
}

func TestCSVNoHeader(t *testing.T) {
	m, names, err := ReadCSV(strings.NewReader("1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if names != nil {
		t.Errorf("names = %v, want nil", names)
	}
	if m.NumRecords() != 2 || m.Row(0)[1] != 2 {
		t.Errorf("matrix wrong: %+v", m)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty: want error")
	}
	if _, _, err := ReadCSV(strings.NewReader("a,b\n")); err == nil {
		t.Error("header only: want error")
	}
	if _, _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged: want error")
	}
	if _, _, err := ReadCSV(strings.NewReader("1,2\n3,x\n")); err == nil {
		t.Error("non-numeric data row: want error")
	}
}

func TestWriteCSVNameMismatch(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, []string{"only-one"}); err == nil {
		t.Error("name count mismatch: want error")
	}
}

func TestWidenHiLargeMagnitude(t *testing.T) {
	// The regression case: a width tiny relative to the magnitude of hi.
	// hi + w*1e-9 rounds back to hi (the ULP at 1e18 is 128), so the
	// widening must step to the next representable float64 instead.
	lo, hi := 1e18, 1e18+1024
	got := WidenHi(lo, hi)
	if !(got > hi) {
		t.Fatalf("WidenHi(%g, %g) = %g, not above hi", lo, hi, got)
	}
	if !(Range{Lo: lo, Hi: got}).Contains(hi) {
		t.Errorf("max value %g outside widened domain [%g, %g)", hi, lo, got)
	}
}

func TestWidenHiCases(t *testing.T) {
	cases := []struct{ lo, hi float64 }{
		{0, 1},                // ordinary range: nominal relative widening
		{0, 1e-305},           // subnormal width: w*1e-9 underflows
		{-5e17, 5e17},         // large symmetric range
		{1e18, 1e18 + 128},    // width of exactly one ULP of hi
		{-1e18 - 1024, -1e18}, // large negative magnitude
		{0, math.MaxFloat64},  // widening must not round to +Inf and stall
	}
	for _, c := range cases {
		got := WidenHi(c.lo, c.hi)
		if !(got > c.hi) {
			t.Errorf("WidenHi(%g, %g) = %g, not strictly above hi", c.lo, c.hi, got)
		}
	}
}

func TestDomainsContainMaximaAtLargeMagnitude(t *testing.T) {
	m, err := FromRows([][]float64{
		{1e18, 3},
		{1e18 + 512, 7},
		{1e18 + 1024, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	domains, err := Domains(m)
	if err != nil {
		t.Fatal(err)
	}
	if !domains[0].Contains(1e18 + 1024) {
		t.Errorf("max record outside domain %v", domains[0])
	}
	if !domains[1].Contains(7) {
		t.Errorf("max record outside domain %v", domains[1])
	}
}
