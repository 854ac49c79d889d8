package mafia

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/gen"
	"pmafia/internal/grid"
	"pmafia/internal/rng"
	"pmafia/internal/unit"
)

// FuzzPopulateKernels checks every population kernel against the scalar
// oracle on fuzzed inputs. The shape bytes pick the grid (dimensions,
// fine units, domains, the bin tiling), the CDU set, the chunk size and
// the worker count; the record bytes are raw float64 bit patterns, so
// NaN payloads, ±Inf, subnormals and values far outside the domain all
// reach the kernels' binning. The stored path counts subsets of the CDU
// set from the binned copy a direct pass over it wrote.
func FuzzPopulateKernels(f *testing.F) {
	bitsOf := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	// 2 dims: [0,1) with 4 units in bins of 1,3 units; [-2,0) with 8
	// units in bins of 2; k=1 and k=2 sets; chunk 1 and 65 records.
	f.Add([]byte{1, 3, 0, 3, 0, 2, 7, 254, 7, 1, 1, 1, 1, 0, 5, 1, 0, 1, 1, 2, 0, 1, 64, 2},
		bitsOf(0.1, -1.5, 0.25, -2, 0.75, 0, math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 1, -1e-300, 0.5, 7e300))
	f.Add([]byte{2, 1, 4, 5, 2, 2, 3, 9, 0, 0, 0, 4, 3, 1, 2, 1, 1, 3, 2, 1, 0, 0, 2},
		bitsOf(4.5, 0.25, 1, 5, 0.5, 0.2, -1, 2, 3, 4.9, math.NaN(), math.Copysign(0, -1), 6, 1, 0.75))
	f.Fuzz(func(t *testing.T, shape, recs []byte) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		d := 1 + next()%6
		specs := make([]grid.DimSpec, d)
		for i := range specs {
			fu := 1 + next()%32
			lo := float64(int8(next()))
			s := grid.DimSpec{Index: i, Domain: dataset.Range{Lo: lo, Hi: lo + float64(1+next())/4}, FineUnits: fu}
			for u := 0; u < fu; {
				hi := min(u+1+next()%4, fu)
				s.Bins = append(s.Bins, grid.Bin{UnitLo: u, UnitHi: hi})
				u = hi
			}
			specs[i] = s
		}
		g, err := grid.FromBins(specs, 1)
		if err != nil {
			t.Fatal(err)
		}

		k := 1 + next()%d
		ncdu := next() % 48
		cdus := unit.New(k, ncdu)
		dims, bins := make([]uint8, k), make([]uint8, k)
		for i := 0; i < ncdu; i++ {
			free := make([]uint8, d)
			for j := range free {
				free[j] = uint8(j)
			}
			for x := range dims {
				j := next() % len(free)
				dims[x] = free[j]
				free = slices.Delete(free, j, j+1)
			}
			slices.Sort(dims)
			for x, dim := range dims {
				bins[x] = uint8(next() % g.Dims[dim].NumBins())
			}
			cdus.AppendRaw(dims, bins)
		}
		cdus = gen.CompactUnique(cdus, gen.MarkRepeats(cdus, 0, cdus.Len()))
		chunk := 1 + next()%130
		workers := 1 + next()%3

		n := min(len(recs)/(8*d), 400)
		m := dataset.NewMatrix(n, d)
		for i := range m.Values {
			m.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(recs[8*i:]))
		}

		want := oracleCounts(g, cdus, m)
		for _, strategy := range []CountStrategy{CountDirect, CountGrouped, CountGroupedMap} {
			got, err := PopulateCounts(g, cdus, m, chunk, workers, strategy)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("strategy=%v chunk=%d workers=%d: counts[%d] = %d, oracle %d",
						strategy, chunk, workers, i, got[i], want[i])
				}
			}
		}

		subs := subsetsOf(rng.New(uint64(len(recs))), cdus)
		subWant := make([][]int64, len(subs))
		for si, sub := range subs {
			subWant[si] = oracleCounts(g, sub, m)
		}
		checkStored(t, g, m, cdus, want, subs, subWant, chunk, workers)
	})
}
