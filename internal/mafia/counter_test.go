package mafia

import (
	"math"
	"slices"
	"sort"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/gen"
	"pmafia/internal/grid"
	"pmafia/internal/histogram"
	"pmafia/internal/rng"
	"pmafia/internal/unit"
)

// testGrid builds a uniform grid with xi bins over d dimensions plus a
// matrix of n random records in [0, 1) per dimension.
func testGrid(t testing.TB, r *rng.Source, n, d, xi int) (*grid.Grid, *dataset.Matrix) {
	t.Helper()
	domains := make([]dataset.Range, d)
	for i := range domains {
		domains[i] = dataset.Range{Lo: 0, Hi: 1}
	}
	m := dataset.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = r.Float64()
		}
	}
	h := histogram.New(domains, 10*xi)
	if err := h.AddSource(m, 128); err != nil {
		t.Fatal(err)
	}
	g, err := grid.BuildUniform(h, xi, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// randCDUs builds count random k-dimensional CDUs over the grid:
// sorted random dimension sets with random in-range bins. The result is
// repeat-free, matching the engine's invariant (dedup runs before every
// population pass) — with duplicates present the kernels legitimately
// differ on which copy the population is attributed to.
func randCDUs(r *rng.Source, g *grid.Grid, k, count int) *unit.Array {
	return randCDUsIn(r, g, r.Perm(len(g.Dims)), k, count)
}

// randCDUsIn is randCDUs with every CDU's dimensions drawn from
// allowed, so the dimensions outside it stay untouched.
func randCDUsIn(r *rng.Source, g *grid.Grid, allowed []int, k, count int) *unit.Array {
	cdus := unit.New(k, count)
	dims := make([]uint8, k)
	bins := make([]uint8, k)
	for i := 0; i < count; i++ {
		perm := r.Perm(len(allowed))[:k]
		for x := range perm {
			perm[x] = allowed[perm[x]]
		}
		sort.Ints(perm)
		for x := 0; x < k; x++ {
			dims[x] = uint8(perm[x])
			bins[x] = uint8(r.Intn(g.Dims[perm[x]].NumBins()))
		}
		cdus.AppendRaw(dims, bins)
	}
	return gen.CompactUnique(cdus, gen.MarkRepeats(cdus, 0, cdus.Len()))
}

// oracleCounts is the scalar population scan every kernel is checked
// against: bin each record with BinRow, then compare its bins with
// every CDU's, one CDU and one dimension at a time.
func oracleCounts(g *grid.Grid, cdus *unit.Array, m *dataset.Matrix) []int64 {
	counts := make([]int64, cdus.Len())
	row := make([]uint8, len(g.Dims))
	for r := 0; r < m.NumRecords(); r++ {
		g.BinRow(m.Row(r), row)
		for i := range counts {
			ud, ub := cdus.Unit(i)
			hit := true
			for x := range ud {
				if row[ud[x]] != ub[x] {
					hit = false
					break
				}
			}
			if hit {
				counts[i]++
			}
		}
	}
	return counts
}

// randTiledGrid builds a d-dimensional grid whose dimensions have random
// domains, fine-unit counts and bin widths (a random tiling of the fine
// units), the shapes adaptive grids produce.
func randTiledGrid(t *testing.T, r *rng.Source, d int) *grid.Grid {
	t.Helper()
	specs := make([]grid.DimSpec, d)
	for i := range specs {
		fu := 1 + r.Intn(60)
		lo := r.In(-50, 50)
		dom := dataset.Range{Lo: lo, Hi: lo + r.In(0.5, 100)}
		s := grid.DimSpec{Index: i, Domain: dom, FineUnits: fu}
		unitW := dom.Width() / float64(fu)
		for u := 0; u < fu; {
			hi := min(u+1+r.Intn(8), fu)
			s.Bins = append(s.Bins, grid.Bin{
				Bounds: dataset.Range{Lo: dom.Lo + float64(u)*unitW, Hi: dom.Lo + float64(hi)*unitW},
				UnitLo: u, UnitHi: hi,
			})
			u = hi
		}
		specs[i] = s
	}
	g, err := grid.FromBins(specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// edgeValue draws a value for dimension gd that stresses BinOf's
// arithmetic: NaN, ±Inf, values outside the domain, the domain ends,
// values exactly on (and one ULP beside) bin bounds and fine-unit
// boundaries, or a plain in-domain value.
func edgeValue(r *rng.Source, gd *grid.Dim) float64 {
	dom := gd.Domain
	b := gd.Bins[r.Intn(gd.NumBins())]
	edge := dom.Lo + float64(r.Intn(gd.FineUnits()+1))*dom.Width()/float64(gd.FineUnits())
	switch r.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return dom.Lo - r.In(0, 2)*dom.Width()
	case 4:
		return dom.Hi + r.In(0, 2)*dom.Width()
	case 5:
		return dom.Hi
	case 6:
		return dom.Lo
	case 7:
		return b.Bounds.Lo
	case 8:
		return b.Bounds.Hi
	case 9:
		return edge
	case 10:
		return math.Nextafter(edge, math.Inf(2*r.Intn(2)-1))
	default:
		return r.In(dom.Lo, dom.Hi)
	}
}

// edgeMatrix draws n records over g, every value an edgeValue.
func edgeMatrix(r *rng.Source, g *grid.Grid, n int) *dataset.Matrix {
	m := dataset.NewMatrix(n, len(g.Dims))
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = edgeValue(r, &g.Dims[j])
		}
	}
	return m
}

// subsetsOf returns two CDU sets whose atoms are all atoms of cdus: a
// random half of cdus and, for k >= 2, the distinct (k-1)-faces that
// drop each CDU's last dimension — another K, so other atom ids map to
// the binned copy's slots.
func subsetsOf(r *rng.Source, cdus *unit.Array) []*unit.Array {
	half := unit.New(cdus.K, cdus.Len()/2)
	for i := 0; i < cdus.Len(); i++ {
		if r.Intn(2) == 0 {
			half.AppendRaw(cdus.Unit(i))
		}
	}
	subs := []*unit.Array{half}
	if cdus.K >= 2 {
		faces := unit.New(cdus.K-1, cdus.Len())
		for i := 0; i < cdus.Len(); i++ {
			d, b := cdus.Unit(i)
			faces.AppendRaw(d[:cdus.K-1], b[:cdus.K-1])
		}
		subs = append(subs, gen.CompactUnique(faces, gen.MarkRepeats(faces, 0, faces.Len())))
	}
	return subs
}

// checkStored runs a direct pass over cdus that writes a binned copy of
// m, then counts every set of subs from the copy: each must match its
// oracle counts, and the stored passes must count every record.
func checkStored(t *testing.T, g *grid.Grid, m *dataset.Matrix, cdus *unit.Array, want []int64, subs []*unit.Array, subWant [][]int64, chunk, workers int) {
	t.Helper()
	p := &populator{shard: m, chunk: chunk, workers: workers}
	defer p.drop()
	w := newCounter(g, cdus, CountDirect)
	if _, err := p.count(w); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.counts, want) {
		t.Fatalf("chunk=%d workers=%d: copy-writing pass counts %v, oracle %v", chunk, workers, w.counts, want)
	}
	if p.copy == nil {
		t.Fatalf("chunk=%d workers=%d: no binned copy written", chunk, workers)
	}
	for si, sub := range subs {
		c := newCounter(g, sub, CountDirect)
		if _, err := p.count(c); err != nil {
			t.Fatal(err)
		}
		if p.copy == nil {
			t.Fatalf("chunk=%d workers=%d: binned copy dropped", chunk, workers)
		}
		if !slices.Equal(c.counts, subWant[si]) || c.records != int64(m.NumRecords()) {
			t.Fatalf("chunk=%d workers=%d subset %d (k=%d): stored counts %v over %d records, oracle %v over %d",
				chunk, workers, si, sub.K, c.counts, c.records, subWant[si], m.NumRecords())
		}
	}
}

// TestCountKernelsAgree is the population-kernel property test: on
// random variable-width grids and records full of NaN, ±Inf,
// out-of-domain and on-bound values, every kernel must reproduce the
// scalar oracle's counts for k from 1 to d, with CDU sets that leave
// dimensions untouched, chunk sizes that leave partial 64-record blocks,
// and 1 or 3 workers. The stored path counts subsets of each CDU set
// from the binned copy its direct pass wrote, at the same chunk sizes
// and worker counts.
func TestCountKernelsAgree(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 8; trial++ {
		d := 2 + r.Intn(5)
		g := randTiledGrid(t, r.Split(), d)
		m := edgeMatrix(r.Split(), g, 300+r.Intn(200))
		allowed := r.Perm(d)
		if trial%2 == 1 { // odd trials leave at least one dimension untouched
			allowed = allowed[:1+r.Intn(d-1)]
		}
		for k := 1; k <= len(allowed); k++ {
			cdus := randCDUsIn(r.Split(), g, allowed, k, 1+r.Intn(150))
			want := oracleCounts(g, cdus, m)
			for _, strategy := range []CountStrategy{CountDirect, CountGrouped, CountGroupedMap} {
				for _, chunk := range []int{1, 63, 65, 300} {
					for _, workers := range []int{1, 3} {
						got, err := PopulateCounts(g, cdus, m, chunk, workers, strategy)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("trial %d k=%d strategy=%v chunk=%d workers=%d: counts[%d] = %d, oracle %d",
									trial, k, strategy, chunk, workers, i, got[i], want[i])
							}
						}
					}
				}
			}
			subs := subsetsOf(rng.New(uint64(100*trial+k)), cdus)
			subWant := make([][]int64, len(subs))
			for si, sub := range subs {
				subWant[si] = oracleCounts(g, sub, m)
			}
			for _, chunk := range []int{1, 63, 65, 300} {
				for _, workers := range []int{1, 3} {
					checkStored(t, g, m, cdus, want, subs, subWant, chunk, workers)
				}
			}
		}
	}
}

// TestCountGroupedUsesBitset checks the flat path actually engages for
// small cell spaces (otherwise the property test would be comparing the
// map path with itself).
func TestCountGroupedUsesBitset(t *testing.T) {
	r := rng.New(5)
	g, _ := testGrid(t, r, 200, 5, 8)
	cdus := randCDUs(r, g, 3, 40)
	c := newCounter(g, cdus, CountGrouped)
	flat := 0
	for si := range c.subs {
		if c.subs[si].member != nil {
			flat++
		}
	}
	if flat == 0 {
		t.Fatal("no subspace took the flat/bitset path")
	}
	cm := newCounter(g, cdus, CountGroupedMap)
	for si := range cm.subs {
		if cm.subs[si].member != nil {
			t.Fatal("CountGroupedMap built a bitset subspace")
		}
	}
}

// TestCountGroupedCellCapFallback gives CountGrouped a subspace whose
// cell space exceeds maxFlatCells (20^7 ≈ 1.3e9 cells): it must fall
// back to the map lookup per subspace and still match the oracle.
func TestCountGroupedCellCapFallback(t *testing.T) {
	r := rng.New(13)
	const d, k, xi = 8, 7, 20
	g, m := testGrid(t, r, 400, d, xi)
	cdus := randCDUs(r, g, k, 30)

	c := newCounter(g, cdus, CountGrouped)
	for si := range c.subs {
		if c.subs[si].member != nil {
			t.Fatalf("subspace %d took the flat path over %d^%d cells", si, xi, k)
		}
	}

	want, err := PopulateCounts(g, cdus, m, 64, 1, CountGroupedMap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PopulateCounts(g, cdus, m, 64, 2, CountGrouped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts[%d] = %d, oracle %d", i, got[i], want[i])
		}
	}
}

// TestCountGroupedDuplicateAttribution pins the duplicate-CDU contract
// of the two grouped kernels: the engine dedups before populating, but
// if duplicates do reach a grouped kernel, the whole population is
// attributed to the last copy (the map path's insertion-order
// overwrite) — and the flat path must mirror that exactly.
func TestCountGroupedDuplicateAttribution(t *testing.T) {
	r := rng.New(17)
	g, m := testGrid(t, r, 300, 4, 6)
	cdus := unit.New(2, 3)
	cdus.AppendRaw([]uint8{0, 2}, []uint8{1, 3})
	cdus.AppendRaw([]uint8{1, 3}, []uint8{0, 5})
	cdus.AppendRaw([]uint8{0, 2}, []uint8{1, 3}) // duplicate of CDU 0
	want, err := PopulateCounts(g, cdus, m, 50, 1, CountGroupedMap)
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != 0 {
		t.Fatalf("map path attributed %d records to the first duplicate", want[0])
	}
	got, err := PopulateCounts(g, cdus, m, 50, 1, CountGrouped)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts[%d]: flat=%d oracle=%d", i, got[i], want[i])
		}
	}
}

// BenchmarkPopulateKernels times the direct and grouped kernels on one
// worker over 50 k uniform records on a 16-d, 10-bin grid, for the two
// CDU-set shapes that bracket autoCountThreshold:
//   - deep: 140 CDUs of k=4 in 70 subspaces, 1 to 3 CDUs per
//     subspace — the shape of a fit_deep level, where the direct
//     kernel's per-record cost (16 binnings) beats the grouped kernel's
//     per-subspace cell lookups;
//   - dense: every cell of 20 three-dimensional subspaces, 20 000 CDUs,
//     where the direct kernel's per-block AND over every CDU loses to
//     one cell lookup per subspace.
//
// The stored cells time a direct pass that counts the same set from the
// binned copy a first direct pass wrote (outside the timer): the cost
// of every direct level after a run's first.
func BenchmarkPopulateKernels(b *testing.B) {
	const n, d, xi = 50000, 16, 10
	r := rng.New(3)
	g, m := testGrid(b, r.Split(), n, d, xi)

	deep := unit.New(4, 140)
	for deep.Len() < 140 {
		dims := r.Perm(d)[:4]
		sort.Ints(dims)
		for c := 1 + r.Intn(3); c > 0 && deep.Len() < 140; c-- {
			ud, ub := make([]uint8, 4), make([]uint8, 4)
			for x, dim := range dims {
				ud[x], ub[x] = uint8(dim), uint8(r.Intn(xi))
			}
			deep.AppendRaw(ud, ub)
		}
	}
	deep = gen.CompactUnique(deep, gen.MarkRepeats(deep, 0, deep.Len()))

	dense := unit.New(3, 20*xi*xi*xi)
	seen := map[[3]int]bool{}
	for len(seen) < 20 {
		p := r.Perm(d)[:3]
		sort.Ints(p)
		sub := [3]int{p[0], p[1], p[2]}
		if seen[sub] {
			continue
		}
		seen[sub] = true
		for cell := 0; cell < xi*xi*xi; cell++ {
			dense.AppendRaw(
				[]uint8{uint8(sub[0]), uint8(sub[1]), uint8(sub[2])},
				[]uint8{uint8(cell / (xi * xi)), uint8(cell / xi % xi), uint8(cell % xi)})
		}
	}

	for _, set := range []struct {
		name string
		cdus *unit.Array
	}{{"deep", deep}, {"dense", dense}} {
		for _, k := range []struct {
			name     string
			strategy CountStrategy
		}{{"direct", CountDirect}, {"grouped", CountGrouped}} {
			b.Run(set.name+"/"+k.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := PopulateCounts(g, set.cdus, m, 8192, 1, k.strategy); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(set.cdus.Len()), "cdus")
			})
		}
		b.Run(set.name+"/stored", func(b *testing.B) {
			p := &populator{shard: m, chunk: 8192, workers: 1}
			defer p.drop()
			if _, err := p.count(newCounter(g, set.cdus, CountDirect)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.count(newCounter(g, set.cdus, CountDirect)); err != nil {
					b.Fatal(err)
				}
			}
			if p.copy == nil {
				b.Fatal("no binned copy: the cell timed raw passes")
			}
			b.ReportMetric(float64(set.cdus.Len()), "cdus")
		})
	}
}
