package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// ReadCSV parses numeric CSV into a Matrix. If the first row contains
// any non-numeric field it is treated as a header and its fields are
// returned as column names; otherwise names is nil.
//
// The result, error texts included, is what a default csv.Reader whose
// fields go through strconv.ParseFloat gives, bit for bit, but it is
// decoded in one pass: lines without a quote are split at commas by
// ReadCSV itself and their fields parsed straight from the read buffer.
// From the first line holding a '"' on, the rest of the input goes to a
// csv.Reader, and the line numbers of its *csv.ParseErrors count from
// the start of r. Read errors are returned as they are.
func ReadCSV(r io.Reader) (m *Matrix, names []string, err error) {
	var d csvDecoder
	if err := d.read(bufio.NewReader(r)); err != nil {
		return nil, nil, err
	}
	if d.recs == 0 {
		return nil, nil, fmt.Errorf("dataset: empty CSV")
	}
	if d.m.NumRecords() == 0 {
		return nil, nil, fmt.Errorf("dataset: CSV contains a header but no data rows")
	}
	return &d.m, d.names, nil
}

// csvDecoder is ReadCSV's result as it grows one record at a time.
type csvDecoder struct {
	m     Matrix
	names []string
	recs  int // records read, the header included
}

// read decodes br to its end, splitting lines until one holds a quote.
// It reads lines as csv.Reader does: a line longer than br's buffer is
// accumulated, "\r\n" ends a line as "\n" does, a final '\r' before
// the end of the input is dropped, and empty lines are skipped.
func (d *csvDecoder) read(br *bufio.Reader) error {
	var long []byte
	for lines := 0; ; lines++ {
		raw, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for err == bufio.ErrBufferFull {
				raw, err = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if len(raw) == 0 && err == io.EOF {
			return nil
		}
		if bytes.IndexByte(raw, '"') >= 0 {
			return d.readQuoted(raw, err, br, lines)
		}
		if err != nil && err != io.EOF {
			return err
		}
		line := bytes.TrimSuffix(bytes.TrimSuffix(raw, []byte("\n")), []byte("\r"))
		if len(line) == 0 {
			continue
		}
		vals, n, numeric := appendFields(d.m.Values, line)
		if d.recs == 0 && !numeric {
			d.names = strings.Split(string(line), ",")
		}
		if err := d.add(vals, n, numeric); err != nil {
			return err
		}
	}
}

// readQuoted decodes the rest of the input with a csv.Reader: raw, the
// line that held the first quote and was read with readErr, then what
// br holds. lines is the number of lines read before raw, which the
// line numbers of a *csv.ParseError are offset by.
func (d *csvDecoder) readQuoted(raw []byte, readErr error, br *bufio.Reader, lines int) error {
	src := []io.Reader{bytes.NewReader(slices.Clone(raw))}
	if readErr == nil {
		src = append(src, br)
	} else if readErr != io.EOF {
		// br has failed right after raw: csv.Reader must meet the same
		// error there, not read br again.
		src = append(src, errReader{readErr})
	}
	cr := csv.NewReader(io.MultiReader(src...))
	cr.FieldsPerRecord = -1 // validate widths ourselves for better errors
	// Every row is parsed into the values before the next is read, so
	// the reader may hand back one reused field slice.
	cr.ReuseRecord = true
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if pe := (*csv.ParseError)(nil); errors.As(err, &pe) {
			pe.StartLine += lines
			pe.Line += lines
		}
		if err != nil {
			return err
		}
		vals, numeric := appendRow(d.m.Values, fields)
		if d.recs == 0 && !numeric {
			d.names = slices.Clone(fields)
		}
		if err := d.add(vals, len(fields), numeric); err != nil {
			return err
		}
	}
}

// add counts a record of n fields, numeric when every one is a number,
// and keeps vals: the matrix's values with the record's appended when
// it is numeric, as they were when not. The first record sets the
// width; a later one must match it and be numeric.
func (d *csvDecoder) add(vals []float64, n int, numeric bool) error {
	d.recs++
	switch {
	case d.recs == 1:
		d.m.D = n
	case n != d.m.D:
		return fmt.Errorf("dataset: line %d has %d fields, want %d", d.recs, n, d.m.D)
	case !numeric:
		return fmt.Errorf("dataset: line %d has a non-numeric field", d.recs)
	}
	d.m.Values = vals
	return nil
}

// appendFields parses the comma-separated fields of line onto vals, as
// appendRow does csv.Reader's fields, and also returns their number.
func appendFields(vals []float64, line []byte) ([]float64, int, bool) {
	n, fields, numeric := len(vals), 0, true
	for {
		f := line
		i := bytes.IndexByte(line, ',')
		if i >= 0 {
			f = line[:i]
		}
		fields++
		if numeric {
			var v float64
			v, numeric = parseFloat(f)
			vals = append(vals, v)
		}
		if i < 0 {
			break
		}
		line = line[i+1:]
	}
	if !numeric {
		vals = vals[:n]
	}
	return vals, fields, numeric
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

// errReader fails every Read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

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
