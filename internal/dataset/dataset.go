// Package dataset defines the record model shared by the clustering
// engines: d-dimensional numeric records, chunked scanning (so the same
// algorithms run in-core and out-of-core), per-dimension domains, a
// CSV codec for interchange, and a byte view through which readers of
// little-endian float64 payloads decode in place.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Range is a half-open interval [Lo, Hi) describing a dimension's domain
// or a cluster boundary in one dimension.
type Range struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

// Contains reports whether v lies in [Lo, Hi).
func (r Range) Contains(v float64) bool { return v >= r.Lo && v < r.Hi }

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Lo < o.Hi && o.Lo < r.Hi }

// String formats the range as "[lo, hi)".
func (r Range) String() string { return fmt.Sprintf("[%g, %g)", r.Lo, r.Hi) }

// Source is a rewindable supplier of d-dimensional records. The two
// implementations are the in-memory Matrix (here) and the on-disk record
// file (internal/diskio); the clustering engines only see this
// interface, which is what makes them out-of-core capable.
type Source interface {
	// Dims returns the dimensionality d of every record.
	Dims() int
	// NumRecords returns the total number of records.
	NumRecords() int
	// Scan returns a new scanner positioned at the first record that
	// yields chunks of at most chunkRecords records.
	Scan(chunkRecords int) Scanner
}

// Scanner iterates over a Source in chunks. A chunk is a row-major
// []float64 of n*Dims values; the slice is only valid until the next
// Next call. Usage:
//
//	sc := src.Scan(b)
//	for {
//		chunk, n := sc.Next()
//		if n == 0 { break }
//		... use chunk[:n*d] ...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner interface {
	// Next returns the next chunk and the number of records in it;
	// n == 0 signals the end of the stream or an error (check Err).
	Next() (chunk []float64, n int)
	// Err returns the first error encountered, if any.
	Err() error
	// Close releases resources held by the scanner.
	Close() error
}

// Matrix is an in-memory Source: NumRecords rows of Dims values stored
// row-major in a single backing slice.
type Matrix struct {
	D      int
	Values []float64 // len = n*D
}

// NewMatrix allocates an n-record, d-dimensional matrix of zeros.
func NewMatrix(n, d int) *Matrix {
	return &Matrix{D: d, Values: make([]float64, n*d)}
}

// FromRows builds a Matrix from a slice of rows, validating that every
// row has the same width.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("dataset: no rows")
	}
	d := len(rows[0])
	if d == 0 {
		return nil, errors.New("dataset: zero-dimensional rows")
	}
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("dataset: row %d has %d values, want %d", i, len(r), d)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Dims returns the dimensionality.
func (m *Matrix) Dims() int { return m.D }

// NumRecords returns the number of records.
func (m *Matrix) NumRecords() int {
	if m.D == 0 {
		return 0
	}
	return len(m.Values) / m.D
}

// Row returns the i-th record as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Values[i*m.D : (i+1)*m.D] }

// Append adds a record, which must have exactly Dims values.
func (m *Matrix) Append(rec []float64) {
	if len(rec) != m.D {
		panic(fmt.Sprintf("dataset: appending %d-wide record to %d-dim matrix", len(rec), m.D))
	}
	m.Values = append(m.Values, rec...)
}

// Slice returns a view of records [lo, hi) sharing storage with m.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	return &Matrix{D: m.D, Values: m.Values[lo*m.D : hi*m.D]}
}

// Scan implements Source.
func (m *Matrix) Scan(chunkRecords int) Scanner {
	if chunkRecords <= 0 {
		chunkRecords = 1
	}
	return &matrixScanner{m: m, chunk: chunkRecords}
}

type matrixScanner struct {
	m     *Matrix
	chunk int
	pos   int
}

func (s *matrixScanner) Next() ([]float64, int) {
	n := s.m.NumRecords() - s.pos
	if n <= 0 {
		return nil, 0
	}
	if n > s.chunk {
		n = s.chunk
	}
	lo := s.pos
	s.pos += n
	return s.m.Values[lo*s.m.D : (lo+n)*s.m.D], n
}

func (s *matrixScanner) Err() error   { return nil }
func (s *matrixScanner) Close() error { return nil }

// Domains scans src once and returns the observed [min, max] range of
// each dimension, widened at the top by a relative epsilon so that the
// maximum value itself falls inside the half-open domain. NaN values
// are ignored, and a dimension with no other value gets [0, 1), as in a
// fit's own domain pass.
func Domains(src Source) ([]Range, error) {
	d := src.Dims()
	domains := make([]Range, d)
	for i := range domains {
		domains[i] = Range{Lo: math.Inf(1), Hi: math.Inf(-1)}
	}
	sc := src.Scan(defaultScanChunk)
	defer sc.Close()
	seen := 0
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		seen += n
		for r := 0; r < n; r++ {
			rec := chunk[r*d : (r+1)*d]
			for j, v := range rec {
				if v < domains[j].Lo {
					domains[j].Lo = v
				}
				if v > domains[j].Hi {
					domains[j].Hi = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if seen == 0 {
		return nil, errors.New("dataset: empty source")
	}
	for j := range domains {
		if math.IsInf(domains[j].Lo, 1) {
			domains[j] = Range{Lo: 0, Hi: 1}
		} else {
			domains[j] = Widen(domains[j])
		}
	}
	return domains, nil
}

// Widen turns a closed observed range [Lo, Hi] into the half-open
// domain every fit bins over: the top moves up by WidenHi so the
// maximum stays inside, and a zero-width range (Hi <= Lo) becomes
// [Lo, Lo+1) so bin construction never divides by zero. Batch fits,
// file headers and streamed refits all widen through it, so they bin
// the same records identically.
func Widen(r Range) Range {
	if r.Hi <= r.Lo {
		return Range{Lo: r.Lo, Hi: r.Lo + 1}
	}
	return Range{Lo: r.Lo, Hi: WidenHi(r.Lo, r.Hi)}
}

// WidenHi returns a value strictly above hi to serve as the top of a
// half-open domain [lo, hi'), so the observed maximum hi itself tests
// inside. The nominal widening is a relative 1e-9 of the width, but
// when hi's magnitude dwarfs the width that sum rounds back to hi
// (e.g. lo=1e18, hi=1e18+1024: the ULP at 1e18 is 128, far above the
// ~1e-6 nominal step), so the result falls back to the next
// representable float64 above hi. Every widening site — engine domain
// reduction, file headers, in-memory domain scans, streamed refits —
// goes through Widen, which uses it, or maxima silently land outside
// their domain.
func WidenHi(lo, hi float64) float64 {
	widened := hi + (hi-lo)*1e-9
	if widened > hi && !math.IsInf(widened, 1) {
		return widened
	}
	return math.Nextafter(hi, math.Inf(1))
}

const defaultScanChunk = 4096
