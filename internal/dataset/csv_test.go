package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
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
// on bodies covering quoted fields, CRLF line ends, headers, ragged
// rows and every error.
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
	} {
		if err := matchRowDecoder(body); err != nil {
			t.Errorf("%q: %v", body, err)
		}
	}
}

// TestReadCSVAllocations pins ReadCSV near one allocation per row, the
// string csv.Reader makes of each row's fields; the rest are the
// reader's and the growing value slice's. The row-by-row decoder made
// three per row.
func TestReadCSVAllocations(t *testing.T) {
	const rows, cols = 2000, 10
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
	body := b.String()
	var r strings.Reader
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(body)
		if _, _, err := ReadCSV(&r); err != nil {
			t.Fatal(err)
		}
	})
	if limit := rows + rows/20; allocs > float64(limit) {
		t.Errorf("ReadCSV made %.0f allocations for %d rows, want at most %d", allocs, rows, limit)
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
