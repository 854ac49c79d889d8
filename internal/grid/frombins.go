package grid

import (
	"fmt"

	"pmafia/internal/dataset"
)

// DimSpec is the exported, serializable state of one dimension —
// everything FromBins needs to rebuild a Dim whose BinOf is
// bit-identical to the original's. Model serialization round-trips
// grids through this type.
type DimSpec struct {
	Index     int
	Domain    dataset.Range
	Uniform   bool
	FineUnits int
	Bins      []Bin
}

// Spec returns the grid's serializable per-dimension state.
func (g *Grid) Spec() []DimSpec {
	out := make([]DimSpec, len(g.Dims))
	for i := range g.Dims {
		d := &g.Dims[i]
		out[i] = DimSpec{
			Index:     d.Index,
			Domain:    d.Domain,
			Uniform:   d.Uniform,
			FineUnits: d.fineUnits,
			Bins:      append([]Bin(nil), d.Bins...),
		}
	}
	return out
}

// FromBins reconstructs a Grid from serialized per-dimension state.
// Every dimension's bins must tile the fine units [0, FineUnits)
// contiguously — true of every grid the builders produce — because
// the unit-to-bin lookup BinOf consults is rebuilt from the bins'
// unit ranges. n is the global record count the thresholds were
// computed against. Counts from a stored spec are untrusted, so they
// are checked against the engine's limits (255 dims, MaxBins,
// MaxFineUnits, MaxTotalFineUnits) before any table is allocated.
func FromBins(dims []DimSpec, n int64) (*Grid, error) {
	if len(dims) == 0 || len(dims) > 255 {
		return nil, fmt.Errorf("grid: %d dimensions out of [1,255]", len(dims))
	}
	total := 0
	for i, s := range dims {
		if err := checkBinCount(i, len(s.Bins)); err != nil {
			return nil, err
		}
		if s.FineUnits < 1 || s.FineUnits > MaxFineUnits {
			return nil, fmt.Errorf("grid: dim %d: %d fine units out of [1,%d]", i, s.FineUnits, MaxFineUnits)
		}
		total += s.FineUnits
	}
	if total > MaxTotalFineUnits {
		return nil, fmt.Errorf("grid: %d fine units over %d dims, the cap is %d", total, len(dims), MaxTotalFineUnits)
	}
	g := &Grid{Dims: make([]Dim, len(dims)), N: n}
	for i, s := range dims {
		if !(s.Domain.Hi > s.Domain.Lo) {
			return nil, fmt.Errorf("grid: dim %d: empty domain [%v, %v)", i, s.Domain.Lo, s.Domain.Hi)
		}
		d := Dim{
			Index:     s.Index,
			Domain:    s.Domain,
			Uniform:   s.Uniform,
			Bins:      append([]Bin(nil), s.Bins...),
			fineUnits: s.FineUnits,
			unitToBin: make([]uint8, s.FineUnits),
		}
		next := 0
		for bi, b := range d.Bins {
			if b.UnitLo != next || b.UnitHi <= b.UnitLo || b.UnitHi > s.FineUnits {
				return nil, fmt.Errorf("grid: dim %d: bin %d covers fine units [%d,%d), want a tiling of [0,%d) from %d", i, bi, b.UnitLo, b.UnitHi, s.FineUnits, next)
			}
			for u := b.UnitLo; u < b.UnitHi; u++ {
				d.unitToBin[u] = uint8(bi)
			}
			next = b.UnitHi
		}
		if next != s.FineUnits {
			return nil, fmt.Errorf("grid: dim %d: bins cover %d of %d fine units", i, next, s.FineUnits)
		}
		g.Dims[i] = d
	}
	return g, nil
}
