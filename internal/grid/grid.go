// Package grid turns per-dimension histograms into the bins the
// clustering engines operate on. It implements both the paper's
// adaptive finite intervals (Algorithm 1: window maxima merged into
// variable-sized bins, equi-distributed dimensions re-split into a few
// fixed partitions with a raised threshold) and the uniform grids of
// CLIQUE (a fixed number of equal bins per dimension with a global
// density threshold).
package grid

import (
	"fmt"
	"math"

	"pmafia/internal/dataset"
	"pmafia/internal/histogram"
)

// MaxBins is the hard cap on bins per dimension imposed by the byte
// encoding of units (bin indices must fit a uint8).
const MaxBins = 255

// MaxFineUnits caps a dimension's fine-histogram resolution. Grids and
// assignment indexes hold one table entry per fine unit, so a stored
// count must be bounded before it is allocated. The engine's automatic
// choice is at most 1000, and the largest CLIQUE bin-count LCM in this
// repository's experiments is 27,720.
const MaxFineUnits = 1 << 20

// MaxTotalFineUnits caps the fine units of a whole grid, summed over
// its dimensions: the per-dimension cap alone lets a model of 255
// dimensions size 255 × 2^20 table entries (about 255 MB of unit-to-bin
// table, twice that in an assignment index) from a file of a few
// kilobytes. The largest sum any configuration in this repository
// reaches is CLIQUE's bin-count LCM, 27,720 per dimension, at the
// 255-dimension limit: 7,068,600 (the engine's automatic choice gives
// at most 1000 × 255). 2^23 admits that with headroom and bounds the
// tables at 8 MB per grid and 16 MB per assignment index.
const MaxTotalFineUnits = 1 << 23

// BinCountError reports a requested or computed per-dimension bin count
// that does not fit the one-byte bin encoding. Unit arrays, dedup keys,
// and the population kernels all index bins with uint8, so a grid built
// past MaxBins would silently truncate indices and corrupt keys; every
// grid builder rejects the count up front with this error instead.
type BinCountError struct {
	// Dim is the offending dimension index (-1 when the count applies to
	// every dimension, as with the uniform ξ).
	Dim int
	// Bins is the rejected bin count.
	Bins int
}

func (e *BinCountError) Error() string {
	if e.Dim < 0 {
		return fmt.Sprintf("grid: %d bins per dimension out of [1,%d] (bin indices are one byte)", e.Bins, MaxBins)
	}
	return fmt.Sprintf("grid: dim %d: %d bins out of [1,%d] (bin indices are one byte)", e.Dim, e.Bins, MaxBins)
}

// checkBinCount validates a per-dimension bin count against the byte
// encoding; dim -1 marks a count that applies to all dimensions.
func checkBinCount(dim, bins int) error {
	if bins < 1 || bins > MaxBins {
		return &BinCountError{Dim: dim, Bins: bins}
	}
	return nil
}

// Bin is one interval of a dimension's partitioning.
type Bin struct {
	Bounds    dataset.Range // value-space interval [Lo, Hi)
	UnitLo    int           // first fine unit covered
	UnitHi    int           // one past the last fine unit covered
	Count     int64         // records whose value falls in the bin
	Threshold float64       // minimum count for a unit built on this bin to be dense
}

// Dim is the computed partitioning of one dimension.
type Dim struct {
	Index     int           // dimension index in the data set
	Domain    dataset.Range // the dimension's domain
	Bins      []Bin
	Uniform   bool // true when the dimension looked equi-distributed
	fineUnits int
	unitToBin []uint8
}

// NumBins returns the number of bins in the dimension.
func (d *Dim) NumBins() int { return len(d.Bins) }

// FineUnits returns the fine-histogram resolution the dimension was
// built against; BinOf scales values by it, so any code reproducing
// BinOf's arithmetic (the assignment index, grid serialization) must
// use this exact value.
func (d *Dim) FineUnits() int { return d.fineUnits }

// UnitBin returns the bin owning fine unit u, the table BinOf reads
// once it has clamped a value to a unit; kernels that restate BinOf's
// arithmetic build their own lookups from it.
func (d *Dim) UnitBin(u int) uint8 { return d.unitToBin[u] }

// ClampUnit is BinOf's clamp restated for straight-line kernels: given
// f = fineUnits*(v-lo)/width, it returns the fine unit BinOf would read
// for v, as an index into the caller's own unit table lut of fineUnits
// entries (so the in-range guard doubles as the table's bounds check).
// int(f) is already the exact unit for every in-domain value including
// f in (0,1), so only out-of-range results — negative f,
// f >= fineUnits, and the implementation-defined conversions of NaN
// and ±Inf — take the fixup, which re-derives the clamp from f itself
// the way BinOf does (NaN fails f > 0 and lands on unit 0).
func ClampUnit(f float64, lut []uint16) int {
	u := int(f)
	if uint(u) >= uint(len(lut)) {
		if f > 0 {
			u = len(lut) - 1
		} else {
			u = 0
		}
	}
	return u
}

// BinOf maps a value to its bin index, clamping out-of-domain values.
func (d *Dim) BinOf(v float64) uint8 {
	dom := d.Domain
	f := float64(d.fineUnits) * (v - dom.Lo) / dom.Width()
	if !(f > 0) { // also catches NaN
		return d.unitToBin[0]
	}
	if f >= float64(d.fineUnits) { // clamp before int conversion can overflow
		return d.unitToBin[d.fineUnits-1]
	}
	return d.unitToBin[int(f)]
}

// Grid is the full set of per-dimension partitionings plus the global
// record count the thresholds were computed against.
type Grid struct {
	Dims []Dim
	N    int64
}

// TotalBins returns the total number of bins across dimensions, which
// is also the number of 1-dimensional candidate dense units.
func (g *Grid) TotalBins() int {
	t := 0
	for i := range g.Dims {
		t += g.Dims[i].NumBins()
	}
	return t
}

// BinRow computes the bin index of every dimension of a record into
// out, which must have length len(g.Dims). This is the inner loop of
// the population passes.
func (g *Grid) BinRow(rec []float64, out []uint8) {
	for i := range g.Dims {
		out[i] = g.Dims[i].BinOf(rec[i])
	}
}

// AdaptiveParams configures Algorithm 1.
type AdaptiveParams struct {
	// WindowUnits is the number of fine histogram units per window.
	WindowUnits int
	// BetaPercent is the merge threshold β: adjacent windows whose
	// values are within β% of the larger are merged into one bin. The
	// paper reports 25-75 working well.
	BetaPercent float64
	// Alpha is the density deviation factor α (> 1.5 per the paper).
	Alpha float64
	// EquiSplit is the number of fixed partitions an equi-distributed
	// dimension is re-split into.
	EquiSplit int
	// UniformBoost multiplies α for equi-distributed dimensions ("set a
	// high threshold as this dimension is less likely to be part of a
	// cluster").
	UniformBoost float64
}

// Validate checks the parameters and fills in unset values with the
// paper's defaults.
func (p *AdaptiveParams) Validate() error {
	if p.WindowUnits == 0 {
		p.WindowUnits = 5
	}
	if p.BetaPercent == 0 {
		// Middle of the paper's working range (25-75). Window maxima of
		// a flat distribution jitter by tens of percent, so a low β
		// fragments uniform dimensions into small bins whose counts
		// then fluctuate past the density threshold.
		p.BetaPercent = 50
	}
	if p.Alpha == 0 {
		p.Alpha = 1.5
	}
	if p.EquiSplit == 0 {
		p.EquiSplit = 5
	}
	if p.UniformBoost == 0 {
		p.UniformBoost = 1.5
	}
	if p.WindowUnits < 0 {
		return fmt.Errorf("grid: negative WindowUnits %d", p.WindowUnits)
	}
	if p.BetaPercent < 0 || p.BetaPercent > 100 {
		return fmt.Errorf("grid: BetaPercent %v out of [0,100]", p.BetaPercent)
	}
	if p.Alpha <= 0 {
		return fmt.Errorf("grid: non-positive Alpha %v", p.Alpha)
	}
	if err := checkBinCount(-1, p.EquiSplit); err != nil {
		return fmt.Errorf("EquiSplit: %w", err)
	}
	if p.UniformBoost < 1 {
		return fmt.Errorf("grid: UniformBoost %v < 1", p.UniformBoost)
	}
	return nil
}

// BuildAdaptive computes adaptive bins for every dimension of the
// (global) histogram h, per Algorithm 1 of the paper.
func BuildAdaptive(h *histogram.Hist, p AdaptiveParams) (*Grid, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Grid{Dims: make([]Dim, len(h.Domains)), N: h.N}
	for dim := range h.Domains {
		g.Dims[dim] = buildAdaptiveDim(h, dim, p)
		// The merge loop and EquiSplit validation keep the count within
		// MaxBins by construction; re-check the invariant here so any
		// future drift in the merge logic surfaces as a typed error
		// instead of truncated uint8 keys.
		if err := checkBinCount(dim, g.Dims[dim].NumBins()); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func buildAdaptiveDim(h *histogram.Hist, dim int, p AdaptiveParams) Dim {
	values, starts := h.WindowMaxima(dim, p.WindowUnits)
	d := Dim{Index: dim, Domain: h.Domains[dim], fineUnits: h.Units}

	// Merge adjacent windows left-to-right while their values are
	// within β% of the larger. If that still yields more than MaxBins
	// bins, retry with a progressively larger β — the paper notes the
	// algorithm is not very sensitive to β.
	beta := p.BetaPercent
	var boundaries []int // fine-unit start of each bin, plus sentinel
	for {
		boundaries = mergeWindows(values, starts, beta)
		if len(boundaries)-1 <= MaxBins {
			break
		}
		beta = beta*1.5 + 5
	}

	if len(boundaries)-1 == 1 || flatDensities(h, dim, boundaries, p.BetaPercent) {
		// Single bin, or every bin has (within β%) the same density:
		// the dimension is equi-distributed — the best-fit rectangular
		// wave is flat. Re-split into EquiSplit fixed partitions with a
		// boosted threshold, per Algorithm 1.
		d.Uniform = true
		boundaries = equalUnitSplit(h.Units, p.EquiSplit)
	}

	alpha := p.Alpha
	if d.Uniform {
		alpha *= p.UniformBoost
	}
	d.Bins = makeBins(h, dim, boundaries, alpha)
	d.unitToBin = unitLookup(h.Units, boundaries)
	return d
}

// mergeWindows merges adjacent windows whose values differ by less than
// beta percent of the larger value ("from left to right merge two
// adjacent units if they are within a threshold β"), returning bin
// boundaries in fine units (including the final sentinel). The
// comparison is pairwise between neighbouring windows, so gradual
// drifts stay merged while the sharp edges of a cluster split.
func mergeWindows(values []int64, starts []int, beta float64) []int {
	if len(values) == 0 {
		return []int{0, 0}
	}
	boundaries := []int{starts[0]}
	for i := 1; i < len(values); i++ {
		if !withinPercent(values[i-1], values[i], beta) {
			boundaries = append(boundaries, starts[i])
		}
	}
	return append(boundaries, starts[len(starts)-1])
}

// flatDensities reports whether every bin implied by boundaries has a
// per-unit density within beta percent of the densest bin, i.e. the
// dimension's best-fit rectangular wave is flat.
func flatDensities(h *histogram.Hist, dim int, boundaries []int, beta float64) bool {
	maxD, minD := 0.0, math.Inf(1)
	for i := 0; i+1 < len(boundaries); i++ {
		lo, hi := boundaries[i], boundaries[i+1]
		if hi <= lo {
			continue
		}
		dens := float64(h.SumRange(dim, lo, hi)) / float64(hi-lo)
		if dens > maxD {
			maxD = dens
		}
		if dens < minD {
			minD = dens
		}
	}
	if maxD == 0 {
		return true
	}
	return maxD-minD <= beta/100*maxD
}

func withinPercent(a, b int64, beta float64) bool {
	if a == b {
		return true
	}
	m := a
	if b > m {
		m = b
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= beta/100*float64(m)
}

// equalUnitSplit divides units fine units into k near-equal partitions.
func equalUnitSplit(units, k int) []int {
	if k > units {
		k = units
	}
	b := make([]int, 0, k+1)
	for i := 0; i <= k; i++ {
		b = append(b, i*units/k)
	}
	return b
}

func makeBins(h *histogram.Hist, dim int, boundaries []int, alpha float64) []Bin {
	dom := h.Domains[dim]
	unitW := dom.Width() / float64(h.Units)
	bins := make([]Bin, 0, len(boundaries)-1)
	for i := 0; i+1 < len(boundaries); i++ {
		lo, hi := boundaries[i], boundaries[i+1]
		if hi <= lo {
			continue
		}
		b := Bin{
			Bounds: dataset.Range{
				Lo: dom.Lo + float64(lo)*unitW,
				Hi: dom.Lo + float64(hi)*unitW,
			},
			UnitLo: lo,
			UnitHi: hi,
			Count:  h.SumRange(dim, lo, hi),
		}
		// Threshold αN·(bin width)/|Dᵢ| — the count the bin would have
		// under equidistribution, scaled by α.
		b.Threshold = alpha * float64(h.N) * float64(hi-lo) / float64(h.Units)
		bins = append(bins, b)
	}
	// Snap the outermost bounds to the exact domain.
	if len(bins) > 0 {
		bins[0].Bounds.Lo = dom.Lo
		bins[len(bins)-1].Bounds.Hi = dom.Hi
	}
	return bins
}

func unitLookup(units int, boundaries []int) []uint8 {
	lut := make([]uint8, units)
	bin := 0
	for u := 0; u < units; u++ {
		for bin+2 < len(boundaries) && u >= boundaries[bin+1] {
			bin++
		}
		lut[u] = uint8(bin)
	}
	return lut
}

// BuildUniform computes the CLIQUE grid: xi equal bins per dimension,
// each with the same global threshold tau·N (tau is CLIQUE's density
// fraction input).
func BuildUniform(h *histogram.Hist, xi int, tau float64) (*Grid, error) {
	if err := checkBinCount(-1, xi); err != nil {
		return nil, err
	}
	if tau <= 0 || tau >= 1 {
		return nil, fmt.Errorf("grid: density threshold %v out of (0,1)", tau)
	}
	if xi > h.Units {
		return nil, fmt.Errorf("grid: %d bins need at least as many fine units (%d)", xi, h.Units)
	}
	g := &Grid{Dims: make([]Dim, len(h.Domains)), N: h.N}
	for dim := range h.Domains {
		boundaries := equalUnitSplit(h.Units, xi)
		d := Dim{Index: dim, Domain: h.Domains[dim], fineUnits: h.Units}
		d.Bins = makeBins(h, dim, boundaries, 0)
		for i := range d.Bins {
			d.Bins[i].Threshold = tau * float64(h.N)
		}
		d.unitToBin = unitLookup(h.Units, boundaries)
		g.Dims[dim] = d
	}
	return g, nil
}

// BuildUniformVariable computes uniform grids with a per-dimension bin
// count, used by the paper's Table 3 "CLIQUE (variable bins)" run.
func BuildUniformVariable(h *histogram.Hist, xis []int, tau float64) (*Grid, error) {
	if len(xis) != len(h.Domains) {
		return nil, fmt.Errorf("grid: %d bin counts for %d dims", len(xis), len(h.Domains))
	}
	g := &Grid{Dims: make([]Dim, len(h.Domains)), N: h.N}
	for dim, xi := range xis {
		if err := checkBinCount(dim, xi); err != nil {
			return nil, err
		}
		if xi > h.Units {
			return nil, fmt.Errorf("grid: dim %d: %d bins need at least as many fine units (%d)", dim, xi, h.Units)
		}
		boundaries := equalUnitSplit(h.Units, xi)
		d := Dim{Index: dim, Domain: h.Domains[dim], fineUnits: h.Units}
		d.Bins = makeBins(h, dim, boundaries, 0)
		for i := range d.Bins {
			d.Bins[i].Threshold = tau * float64(h.N)
		}
		d.unitToBin = unitLookup(h.Units, boundaries)
		g.Dims[dim] = d
	}
	return g, nil
}
