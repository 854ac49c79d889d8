package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// readCSVRows is the row-by-row decoder ReadCSV must agree with: the
// reader hands out a fresh field slice per row, each row is parsed into
// its own slice, and Matrix.Append copies it.
func readCSVRows(r io.Reader) (m *Matrix, names []string, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	first, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("dataset: empty CSV")
	}
	if err != nil {
		return nil, nil, err
	}
	parse := func(fields []string) ([]float64, bool) {
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, false
			}
			row[i] = v
		}
		return row, true
	}
	d := len(first)
	m = &Matrix{D: d}
	if row, numeric := parse(first); numeric {
		m.Append(row)
	} else {
		names = first
	}
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		line++
		if len(rec) != d {
			return nil, nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), d)
		}
		row, ok := parse(rec)
		if !ok {
			return nil, nil, fmt.Errorf("dataset: line %d has a non-numeric field", line)
		}
		m.Append(row)
	}
	if m.NumRecords() == 0 {
		return nil, nil, fmt.Errorf("dataset: CSV contains a header but no data rows")
	}
	return m, names, nil
}

// matchRowDecoder reports how ReadCSV's result for body differs from
// readCSVRows's: the same error text, or the same names and the same
// values bit for bit (so NaN payloads and signed zeros count).
func matchRowDecoder(body string) error {
	m, names, err := ReadCSV(strings.NewReader(body))
	wm, wnames, werr := readCSVRows(strings.NewReader(body))
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		return fmt.Errorf("error %v, row decoder %v", err, werr)
	}
	if err != nil {
		return nil
	}
	if m.D != wm.D || !slices.Equal(names, wnames) || (names == nil) != (wnames == nil) {
		return fmt.Errorf("%d columns named %q, row decoder %d named %q", m.D, names, wm.D, wnames)
	}
	if !slices.EqualFunc(m.Values, wm.Values, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return fmt.Errorf("values %v, row decoder %v", m.Values, wm.Values)
	}
	return nil
}

// TestReadCSVMatchesRowDecoder holds ReadCSV to the row-by-row decoder
// on bodies covering quoted fields from the first line or a later one,
// every kind of line end, lines longer than the read buffer, headers,
// ragged rows and every error.
func TestReadCSVMatchesRowDecoder(t *testing.T) {
	for _, body := range []string{
		"1,2,3\n4,5,6\n",
		"a,b\n1.5,-2\n3.25,4\n",
		"a,b\r\n1,2\r\n3,4\r\n",
		"\"1\",\"2\"\n\"3\",4\n",
		"\"x,y\",\"z\"\"q\"\n1,2\n",
		"\"multi\nline\",b\n1,2\n",
		"1\n",
		"x\n",
		"a,b\n",
		"1,2\n3\n",
		"1,2\n3,4,5\n",
		"a,b\n1,2\n3\n",
		"1,x\n2,3\n",
		"1,2\n3,x\n",
		"a,1\n2,3\n",
		"NaN,+Inf,-0,1e308,0x1p-2\n",
		"1,2\n\n\n3,4\n",
		"1,2\n\"3,4\n",
		"1, 2\n",
		"1,2\n3,4",
		"",
		"\n",
		// A first quote after split lines: parse errors must name the
		// lines of the whole body, empty ones included.
		"1,2\n\"3\",4\n5,6\n",
		"1,2\n\n\n3,x\"y\n",
		"\n1,2\n\n3,4\n\n5,\"6\n",
		"1,2\n\n3,\"4\n5\"x\n",
		"\n\n\"a\nb\",c\n1,2\n3,\"4\"x\n",
		"1,2\r\n\r\n3,4\r\n\"5\"x,6\r\n",
		"1,2\n3,4\n\"5\n6\",7\n",
		"1,2\n\"3\",\"4\"\n\"5\",\"6\n\"\n",
		"a,b\n1,2\n\"3\",4\n5,6\n7\n",
		// A quoted header after empty or numeric-looking lines.
		"\n\n\"a\",\"b\"\n1,2\n",
		"1,2\n\"a\",\"b\"\n3,4\n",
		// Line ends: "\r\r\n", a final '\r' with no newline, a lone
		// '\r' line at the end, and a '\r' inside a field.
		"1,2\r\r\n3,4\n",
		"1,2\n3,4\r",
		"1,2\n3,4\r\r",
		"1,2\n\r",
		"1\r,2\n3,4\n",
		"a\rb,c\n1,2\n",
		"1,2\n3\r4,5\n",
		// Empty and sign-only fields, and values only strconv parses.
		"1,\n",
		",\n1,2\n",
		"1,2\n3,\n",
		"+,-\n.,1\n",
		"1e5,0x1p-2\n1_0,2\n",
		"9007199254740993,4503599627370496.5\n-0,+.5\n",
		"1e400,1\n2,3\n",
	} {
		if err := matchRowDecoder(body); err != nil {
			t.Errorf("%q: %v", body, err)
		}
	}
	// Lines longer than the 4 KB read buffer, with and without a
	// quote, and a quote on the line after one.
	long := strings.Repeat("1.2345678901234567,", 400) + "8"
	for _, body := range []string{
		long + "\n" + long + "\n",
		long + "\n" + long,
		long + "\r\n" + long + "\r",
		"a" + long[1:] + "\n" + long + "\n",
		long + "\n\"" + long[1:] + "\n",
		long + "\n" + long + "\n" + `"1",2` + "\n",
		long + "\n" + long[:3000] + `"` + long[3000:] + "\n",
		long + "\n" + long + "\n\"x\n",
	} {
		if err := matchRowDecoder(body); err != nil {
			t.Errorf("%d-byte body: %v", len(body), err)
		}
	}
}

// TestReadCSVReadError feeds ReadCSV a body whose reader fails for good
// partway: with no quote, with a quote before the failure, and with the
// failure inside a line and inside a quoted field. The error must be the
// reader's, as the row decoder's is.
func TestReadCSVReadError(t *testing.T) {
	errRead := errors.New("connection reset")
	for _, body := range []string{
		"1,2\n3,4\n",
		"1,2\n3,",
		"a,b\n1,2\n3,4\n\"5\",6\n7,8\n",
		"1,2\n\"3\",4\n5,",
		"1,2\n3,\"4\n",
		strings.Repeat("1,2\n", 2000),
	} {
		failing := func() io.Reader { return io.MultiReader(strings.NewReader(body), iotest.ErrReader(errRead)) }
		_, _, err := ReadCSV(failing())
		_, _, werr := readCSVRows(failing())
		if !errors.Is(err, errRead) || !errors.Is(werr, errRead) {
			t.Errorf("%.40q: error %v, row decoder %v, want %v", body, err, werr, errRead)
		}
	}
}

// TestReadCSVAllocations pins ReadCSV's allocations to a count that
// does not grow with the rows: the reader's, the decoder's and the
// value slice's doublings. Split lines are parsed in place, so no row
// makes a string; through csv.Reader each made one.
func TestReadCSVAllocations(t *testing.T) {
	const cols, limit = 10, 64
	for _, rows := range []int{2000, 20000} {
		body := numericCSV(rows, cols)
		var r strings.Reader
		allocs := testing.AllocsPerRun(5, func() {
			r.Reset(body)
			if _, _, err := ReadCSV(&r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit {
			t.Errorf("ReadCSV made %.0f allocations for %d rows, want at most %d", allocs, rows, limit)
		}
	}
}

// numericCSV returns rows×cols values of (r·cols+c)/7, written as
// WriteCSV writes them.
func numericCSV(rows, cols int) string {
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(float64(r*cols+c)/7, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BenchmarkReadCSV decodes a body shaped like a benchmark /ingest
// chunk: 2000 records of 10 values uniform in [0,100), each written in
// shortest form, as WriteCSV writes them.
func BenchmarkReadCSV(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMatrix(2000, 10)
	for i := range m.Values {
		m.Values[i] = 100 * rng.Float64()
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m, nil); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	var r bytes.Reader
	for i := 0; i < b.N; i++ {
		r.Reset(buf.Bytes())
		if _, _, err := ReadCSV(&r); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzReadCSV fuzzes the CSV decoder, which reads untrusted /assign
// and /ingest request bodies. It must never panic, it must decode
// exactly as the row-by-row decoder does, and a body it accepts must be
// a well-formed matrix: at least one column and one record, every
// record D values wide, and a header (when present) of D names.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"1,2,3\n4,5,6\n",
		"a,b\n1.5,-2\n3.25,4\n",
		"1\n",
		"a,b\n",
		"1,2\n3\n",
		"NaN,+Inf,-0,1e308\n",
		"\"1\",\" 2\"\r\n3,4\r\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if err := matchRowDecoder(body); err != nil {
			t.Fatal(err)
		}
		m, names, err := ReadCSV(strings.NewReader(body))
		if err != nil {
			return
		}
		if m.D < 1 || m.NumRecords() < 1 {
			t.Fatalf("accepted a %d-column, %d-record matrix", m.D, m.NumRecords())
		}
		if len(m.Values) != m.NumRecords()*m.D {
			t.Fatalf("%d values for %d records of %d columns", len(m.Values), m.NumRecords(), m.D)
		}
		if names != nil && len(names) != m.D {
			t.Fatalf("%d header names for %d columns", len(names), m.D)
		}
	})
}
