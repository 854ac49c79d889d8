// Package histogram builds the per-dimension fine-grained histograms
// that feed pMAFIA's adaptive grid computation (Algorithm 1 in the
// paper). Each dimension's domain is divided into a fixed number of
// small fine units; one pass over the data counts records per unit; the
// grid package then takes window maxima and merges adjacent windows
// into variable-sized bins.
package histogram

import (
	"fmt"
	"time"

	"pmafia/internal/dataset"
	"pmafia/internal/pool"
)

// Hist is a set of per-dimension fine-unit histograms over a common
// unit count. Counts are int64 so histograms from many ranks can be
// summed without overflow.
//
// The counts of all dimensions live in one flat backing array (Counts
// holds dim-major views into it), and the domain lows/widths are
// mirrored into flat arrays, so the per-chunk tally kernel runs over
// contiguous memory with no per-record allocation or 2-level slice
// chasing.
type Hist struct {
	Units   int             // fine units per dimension
	Domains []dataset.Range // per-dimension domains
	Counts  [][]int64       // [dim][unit], views into flat
	N       int64           // records accumulated

	flat  []int64   // dim-major backing array, len = dims*Units
	lo    []float64 // per-dimension domain low
	width []float64 // per-dimension domain width
}

// New allocates a histogram with units fine units for each of the given
// domains.
func New(domains []dataset.Range, units int) *Hist {
	if units <= 0 {
		panic(fmt.Sprintf("histogram: invalid unit count %d", units))
	}
	d := len(domains)
	h := &Hist{
		Units:   units,
		Domains: domains,
		Counts:  make([][]int64, d),
		flat:    make([]int64, d*units),
		lo:      make([]float64, d),
		width:   make([]float64, d),
	}
	for i := range h.Counts {
		h.Counts[i] = h.flat[i*units : (i+1)*units : (i+1)*units]
		h.lo[i] = domains[i].Lo
		h.width[i] = domains[i].Width()
	}
	return h
}

// Clone returns an independent deep copy of h: same domains, units,
// counts, and record total, sharing no backing memory. A streaming
// ingester hands clones to background refits so accumulation can
// continue while the fit reads a frozen snapshot.
func (h *Hist) Clone() *Hist {
	c := New(append([]dataset.Range(nil), h.Domains...), h.Units)
	copy(c.flat, h.flat)
	c.N = h.N
	return c
}

// UnitOf maps value v in dimension dim to its fine-unit index, clamping
// out-of-domain values to the boundary units.
func (h *Hist) UnitOf(dim int, v float64) int {
	dom := h.Domains[dim]
	f := float64(h.Units) * (v - dom.Lo) / dom.Width()
	if !(f > 0) { // also catches NaN
		return 0
	}
	if f >= float64(h.Units) { // clamp before int conversion can overflow
		return h.Units - 1
	}
	return int(f)
}

// AddRecord counts one d-dimensional record through UnitOf. It is the
// reference per-record path the flat AddChunk kernel is property-tested
// against; the engines call AddChunk.
func (h *Hist) AddRecord(rec []float64) {
	for dim, v := range rec {
		h.Counts[dim][h.UnitOf(dim, v)]++
	}
	h.N++
}

// AddChunk counts n row-major records with the allocation-free flat
// kernel: unit indices are computed from the mirrored lo/width arrays
// (the exact UnitOf expression, so both paths bin identically) and
// bumped directly in the flat backing array. It walks the chunk one
// dimension at a time, so only that dimension's count row is hot.
func (h *Hist) AddChunk(chunk []float64, n int) {
	rows := chunk[:n*len(h.Domains)]
	for dim := range h.Domains {
		h.countDim(dim, rows)
	}
	h.N += int64(n)
}

// Rebin sets dimension dim's domain and recounts its row over src,
// which must hold the N records h counted, reading in chunks of
// chunkRecords; the other dimensions are left as they are. A stream
// whose records widened one dimension's domain rebins that dimension
// alone.
func (h *Hist) Rebin(dim int, domain dataset.Range, src dataset.Source, chunkRecords int) error {
	h.Domains[dim] = domain
	h.lo[dim], h.width[dim] = domain.Lo, domain.Width()
	clear(h.Counts[dim])
	sc := src.Scan(chunkRecords)
	defer sc.Close()
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		h.countDim(dim, chunk[:n*len(h.Domains)])
	}
	return sc.Err()
}

// countDim adds dimension dim of the row-major records in rows to its
// count row.
func (h *Hist) countDim(dim int, rows []float64) {
	d := len(h.Domains)
	units := h.Units
	uf := float64(units)
	lo, width := h.lo[dim], h.width[dim]
	counts := h.flat[dim*units : (dim+1)*units]
	for p := dim; p < len(rows); p += d {
		f := uf * (rows[p] - lo) / width
		var u int
		switch {
		case !(f > 0): // also catches NaN
			u = 0
		case f >= uf:
			u = units - 1
		default:
			u = int(f)
		}
		counts[u]++
	}
}

// AddSource counts every record of src, reading in chunks of
// chunkRecords.
func (h *Hist) AddSource(src dataset.Source, chunkRecords int) error {
	sc := src.Scan(chunkRecords)
	defer sc.Close()
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		h.AddChunk(chunk, n)
	}
	return sc.Err()
}

// AddSourceParallel counts every record of src with an intra-rank
// worker pool: each chunk's records are sharded across workers, every
// worker tallies into a private flat array, and the partials are summed
// into h once the scan ends. Tallies are exactly AddSource's (int64
// sums commute), so the pool is invisible to everything downstream.
// Returns the wall-clock time of the final merge.
func (h *Hist) AddSourceParallel(src dataset.Source, chunkRecords, workers int) (mergeSeconds float64, err error) {
	if workers <= 1 {
		return 0, h.AddSource(src, chunkRecords)
	}
	parts := make([]*Hist, workers)
	for w := range parts {
		parts[w] = New(h.Domains, h.Units)
	}
	n, err := pool.Scan(src, chunkRecords, workers, 1, func(w int, chunk []float64, lo, hi int) {
		parts[w].AddChunk(chunk[lo*len(h.Domains):hi*len(h.Domains)], hi-lo)
	}, nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, p := range parts {
		for i, v := range p.flat {
			h.flat[i] += v
		}
	}
	h.N += n
	return time.Since(start).Seconds(), nil
}

// Flatten serializes all counts (dim-major) plus the record count into
// a single vector, the shape exchanged by the parallel Reduce step.
func (h *Hist) Flatten() []int64 {
	out := make([]int64, 0, len(h.Counts)*h.Units+1)
	for _, c := range h.Counts {
		out = append(out, c...)
	}
	return append(out, h.N)
}

// SetFlattened replaces the counts from a vector produced by Flatten
// (typically after a sum-Reduce across ranks).
func (h *Hist) SetFlattened(v []int64) error {
	want := len(h.Counts)*h.Units + 1
	if len(v) != want {
		return fmt.Errorf("histogram: flattened length %d, want %d", len(v), want)
	}
	for i := range h.Counts {
		copy(h.Counts[i], v[i*h.Units:(i+1)*h.Units])
	}
	h.N = v[len(v)-1]
	return nil
}

// WindowMaxima reduces dimension dim's fine counts to window values:
// each window of windowUnits consecutive units is represented by its
// maximum count, per Algorithm 1. The last window may be narrower when
// Units is not a multiple of windowUnits. It returns the window values
// and the fine-unit start index of each window (with a final sentinel
// equal to Units).
func (h *Hist) WindowMaxima(dim, windowUnits int) (values []int64, starts []int) {
	if windowUnits <= 0 {
		windowUnits = 1
	}
	c := h.Counts[dim]
	for lo := 0; lo < h.Units; lo += windowUnits {
		hi := lo + windowUnits
		if hi > h.Units {
			hi = h.Units
		}
		m := c[lo]
		for _, v := range c[lo+1 : hi] {
			if v > m {
				m = v
			}
		}
		values = append(values, m)
		starts = append(starts, lo)
	}
	starts = append(starts, h.Units)
	return values, starts
}

// SumRange returns the total count of fine units [lo, hi) in dim.
func (h *Hist) SumRange(dim, lo, hi int) int64 {
	var s int64
	for _, v := range h.Counts[dim][lo:hi] {
		s += v
	}
	return s
}
