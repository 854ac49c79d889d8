package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// ReadCSV parses numeric CSV into a Matrix. If the first row contains
// any non-numeric field it is treated as a header and its fields are
// returned as column names; otherwise names is nil.
func ReadCSV(r io.Reader) (m *Matrix, names []string, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate widths ourselves for better errors
	// Every row is parsed into m.Values before the next is read, so the
	// reader may hand back one reused field slice.
	cr.ReuseRecord = true
	first, err := cr.Read()
	if err == io.EOF {
		return nil, nil, fmt.Errorf("dataset: empty CSV")
	}
	if err != nil {
		return nil, nil, err
	}
	m = &Matrix{D: len(first)}
	var numeric bool
	if m.Values, numeric = appendRow(m.Values, first); !numeric {
		names = slices.Clone(first)
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if len(rec) != m.D {
			return nil, nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(rec), m.D)
		}
		var ok bool
		if m.Values, ok = appendRow(m.Values, rec); !ok {
			return nil, nil, fmt.Errorf("dataset: line %d has a non-numeric field", line)
		}
	}
	if m.NumRecords() == 0 {
		return nil, nil, fmt.Errorf("dataset: CSV contains a header but no data rows")
	}
	return m, names, nil
}

// appendRow parses fields onto vals. When a field is not a number it
// returns vals as they were and false.
func appendRow(vals []float64, fields []string) ([]float64, bool) {
	n := len(vals)
	for _, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return vals[:n], false
		}
		vals = append(vals, v)
	}
	return vals, true
}

// WriteCSV writes src as CSV. If names is non-nil it is emitted as a
// header row and must have exactly src.Dims() entries.
func WriteCSV(w io.Writer, src Source, names []string) error {
	cw := csv.NewWriter(w)
	d := src.Dims()
	if names != nil {
		if len(names) != d {
			return fmt.Errorf("dataset: %d column names for %d dims", len(names), d)
		}
		if err := cw.Write(names); err != nil {
			return err
		}
	}
	fields := make([]string, d)
	sc := src.Scan(defaultScanChunk)
	defer sc.Close()
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		for r := 0; r < n; r++ {
			rec := chunk[r*d : (r+1)*d]
			for j, v := range rec {
				fields[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if err := cw.Write(fields); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
