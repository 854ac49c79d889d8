package assign_test

import (
	"math"
	"slices"
	"testing"

	"pmafia/internal/assign"
	"pmafia/internal/cluster"
	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/histogram"
	"pmafia/internal/mafia"
	"pmafia/internal/rng"
)

// uniformGrid builds a xi-bin uniform grid over d dims with the given
// domains (thresholds are irrelevant to assignment).
func uniformGrid(t testing.TB, domains []dataset.Range, xi int) *grid.Grid {
	t.Helper()
	h := histogram.New(domains, 1000)
	rec := make([]float64, len(domains))
	for i, dom := range domains {
		rec[i] = dom.Lo
	}
	h.AddRecord(rec)
	g, err := grid.BuildUniform(h, xi, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func unitDomains(d int) []dataset.Range {
	out := make([]dataset.Range, d)
	for i := range out {
		out[i] = dataset.Range{Lo: 0, Hi: 1}
	}
	return out
}

// clusterOver builds a synthetic cluster constraining dims to the
// inclusive bin runs [lo[i], hi[i]].
func clusterOver(dims []uint8, lo, hi []uint8) cluster.Cluster {
	return cluster.Cluster{
		Dims:  dims,
		Boxes: []cluster.Box{{BinLo: lo, BinHi: hi}},
	}
}

// oracle labels rec with the linear scan the engine ships.
func oracle(g *grid.Grid, cs []cluster.Cluster, rec []float64) int32 {
	r := mafia.Result{Grid: g, Clusters: cs}
	return int32(r.AssignRecord(rec))
}

func mustIndex(t *testing.T, g *grid.Grid, cs []cluster.Cluster) *assign.Index {
	t.Helper()
	ix, err := assign.New(g, cs)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func label(t *testing.T, ix *assign.Index, rec []float64) int32 {
	t.Helper()
	got, err := ix.AssignRecord(rec, ix.Scratch())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestOutliersLabelMinusOne(t *testing.T) {
	g := uniformGrid(t, unitDomains(3), 10)
	cs := []cluster.Cluster{
		clusterOver([]uint8{0, 2}, []uint8{2, 2}, []uint8{4, 4}),
	}
	ix := mustIndex(t, g, cs)
	outliers := [][]float64{
		{0.95, 0.5, 0.3}, // dim 0 outside the run
		{0.3, 0.5, 0.95}, // dim 2 outside the run
		{0.0, 0.0, 0.0},
		{math.NaN(), 0.5, 0.3}, // NaN clamps to bin 0, outside [2,4]
	}
	for _, rec := range outliers {
		if got := label(t, ix, rec); got != -1 {
			t.Errorf("record %v: got cluster %d, want -1", rec, got)
		}
		if want := oracle(g, cs, rec); want != -1 {
			t.Fatalf("oracle disagrees the record %v is an outlier (%d)", rec, want)
		}
	}
	if got := label(t, ix, []float64{0.3, 0.99, 0.3}); got != 0 {
		t.Errorf("in-cluster record: got %d, want 0 (dim 1 is unconstrained)", got)
	}
}

func TestNoClusters(t *testing.T) {
	g := uniformGrid(t, unitDomains(2), 5)
	ix := mustIndex(t, g, nil)
	if got := label(t, ix, []float64{0.5, 0.5}); got != -1 {
		t.Errorf("empty index labeled %d, want -1", got)
	}
}

// TestExactBinBoundaries labels records sitting exactly on every bin
// bound (and the domain ends) and requires bit-identical agreement
// with the oracle — the failure mode a value-space boundary table
// would have.
func TestExactBinBoundaries(t *testing.T) {
	domains := []dataset.Range{{Lo: -3, Hi: 7}, {Lo: 0.1, Hi: 0.9}}
	g := uniformGrid(t, domains, 7)
	cs := []cluster.Cluster{
		clusterOver([]uint8{0}, []uint8{2}, []uint8{4}),
		clusterOver([]uint8{1}, []uint8{0}, []uint8{3}),
	}
	ix := mustIndex(t, g, cs)
	scratch := ix.Scratch()
	for di := range g.Dims {
		for _, b := range g.Dims[di].Bins {
			for _, v := range []float64{b.Bounds.Lo, b.Bounds.Hi, math.Nextafter(b.Bounds.Lo, math.Inf(-1)), math.Nextafter(b.Bounds.Hi, math.Inf(1))} {
				rec := []float64{0.0, 0.5}
				rec[di] = v
				got, err := ix.AssignRecord(rec, scratch)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracle(g, cs, rec); got != want {
					t.Errorf("dim %d boundary value %v: index %d, oracle %d", di, v, got, want)
				}
			}
		}
	}
}

// TestTieGoesToFirstCluster pins the oracle's first-match rule: when
// two clusters of equal dimensionality both contain a record, the one
// earlier in the cluster list wins.
func TestTieGoesToFirstCluster(t *testing.T) {
	g := uniformGrid(t, unitDomains(2), 10)
	cs := []cluster.Cluster{
		clusterOver([]uint8{0}, []uint8{2}, []uint8{6}),
		clusterOver([]uint8{0}, []uint8{4}, []uint8{8}), // overlaps bins 4-6
	}
	ix := mustIndex(t, g, cs)
	rec := []float64{0.55, 0.5} // bin 5: inside both
	if got := label(t, ix, rec); got != 0 {
		t.Errorf("tied record labeled %d, want first cluster 0", got)
	}
	if want := oracle(g, cs, rec); want != 0 {
		t.Fatalf("oracle tie-break changed: %d", want)
	}
	rec = []float64{0.75, 0.5} // bin 7: only the second cluster
	if got := label(t, ix, rec); got != 1 {
		t.Errorf("record in second cluster labeled %d, want 1", got)
	}
}

func TestDimsMismatchErrors(t *testing.T) {
	g := uniformGrid(t, unitDomains(3), 10)
	ix := mustIndex(t, g, []cluster.Cluster{clusterOver([]uint8{0}, []uint8{1}, []uint8{2})})
	if _, err := ix.AssignRecord([]float64{0.5, 0.5}, ix.Scratch()); err == nil {
		t.Error("AssignRecord accepted a 2-dim record on a 3-dim index")
	}
	if err := ix.AssignChunk(make([]float64, 7), make([]int32, 2), ix.Scratch()); err == nil {
		t.Error("AssignChunk accepted a chunk not divisible into records")
	}
	if err := ix.AssignChunk(make([]float64, 6), make([]int32, 2), nil); err == nil {
		t.Error("AssignChunk accepted a nil scratch")
	}
}

func TestIndexRejectsInconsistentClusters(t *testing.T) {
	g := uniformGrid(t, unitDomains(2), 5)
	bad := []cluster.Cluster{
		clusterOver([]uint8{3}, []uint8{0}, []uint8{1}),                                        // dim out of range
		clusterOver([]uint8{0}, []uint8{0}, []uint8{9}),                                        // bin out of range
		clusterOver([]uint8{1, 0}, []uint8{0, 0}, []uint8{1, 1}),                               // dims not ascending
		{Dims: []uint8{0}, Boxes: []cluster.Box{{BinLo: []uint8{0, 0}, BinHi: []uint8{1, 1}}}}, // box arity
	}
	for i, c := range bad {
		if _, err := assign.New(g, []cluster.Cluster{c}); err == nil {
			t.Errorf("case %d: New accepted an inconsistent cluster", i)
		}
	}
}

// TestPropertyMatchesOracle fuzzes randomized grids, clusters, and
// records (in-domain, boundary, out-of-domain, and NaN) and requires
// the index to reproduce the linear-scan label exactly.
func TestPropertyMatchesOracle(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 30; trial++ {
		d := 1 + r.Intn(6)
		domains := make([]dataset.Range, d)
		for i := range domains {
			lo := r.In(-100, 100)
			domains[i] = dataset.Range{Lo: lo, Hi: lo + r.In(0.1, 200)}
		}
		xi := 2 + r.Intn(30)
		g := uniformGrid(t, domains, xi)

		ncl := r.Intn(8)
		cs := make([]cluster.Cluster, 0, ncl)
		for ci := 0; ci < ncl; ci++ {
			k := 1 + r.Intn(d)
			dims := make([]uint8, 0, k)
			for _, di := range r.Perm(d)[:k] {
				dims = append(dims, uint8(di))
			}
			for i := 1; i < len(dims); i++ { // insertion sort ascending
				for j := i; j > 0 && dims[j-1] > dims[j]; j-- {
					dims[j-1], dims[j] = dims[j], dims[j-1]
				}
			}
			nb := 1 + r.Intn(3)
			boxes := make([]cluster.Box, 0, nb)
			for bi := 0; bi < nb; bi++ {
				lo := make([]uint8, k)
				hi := make([]uint8, k)
				for x := range lo {
					a, b := r.Intn(xi), r.Intn(xi)
					if a > b {
						a, b = b, a
					}
					lo[x], hi[x] = uint8(a), uint8(b)
				}
				boxes = append(boxes, cluster.Box{BinLo: lo, BinHi: hi})
			}
			cs = append(cs, cluster.Cluster{Dims: dims, Boxes: boxes})
		}

		ix := mustIndex(t, g, cs)
		scratch := ix.Scratch()
		rec := make([]float64, d)
		for probe := 0; probe < 300; probe++ {
			for i, dom := range domains {
				switch r.Intn(10) {
				case 0: // exact bin bound
					bins := g.Dims[i].Bins
					b := bins[r.Intn(len(bins))]
					if r.Intn(2) == 0 {
						rec[i] = b.Bounds.Lo
					} else {
						rec[i] = b.Bounds.Hi
					}
				case 1: // out of domain
					rec[i] = dom.Lo - r.In(0, 10)
				case 2:
					rec[i] = dom.Hi + r.In(0, 10)
				case 3:
					rec[i] = math.NaN()
				default:
					rec[i] = r.In(dom.Lo, dom.Hi)
				}
			}
			got, err := ix.AssignRecord(rec, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle(g, cs, rec); got != want {
				t.Fatalf("trial %d probe %d: record %v labeled %d, oracle says %d", trial, probe, rec, got, want)
			}
		}
	}
}

// TestChunkAndSourceMatchRecord checks the batch kernel agrees with
// the one-record path, over one whole chunk and over a source scanned
// in chunks.
func TestChunkAndSourceMatchRecord(t *testing.T) {
	r := rng.New(7)
	d := 4
	g := uniformGrid(t, unitDomains(d), 12)
	cs := []cluster.Cluster{
		clusterOver([]uint8{0, 1}, []uint8{1, 1}, []uint8{5, 5}),
		clusterOver([]uint8{2, 3}, []uint8{6, 6}, []uint8{10, 10}),
		clusterOver([]uint8{1}, []uint8{8}, []uint8{11}),
	}
	ix := mustIndex(t, g, cs)
	const n = 1000
	rows := make([][]float64, n)
	flat := make([]float64, 0, n*d)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
		flat = append(flat, rows[i]...)
	}
	want := make([]int32, n)
	scratch := ix.Scratch()
	for i, rec := range rows {
		want[i] = label(t, ix, rec)
	}
	got := make([]int32, n)
	if err := ix.AssignChunk(flat, got, scratch); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AssignChunk record %d: %d vs %d", i, got[i], want[i])
		}
	}
	m, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Label the source chunk by chunk, reusing one scratch buffer and
	// chunk sizes that cut kernel blocks short.
	for _, chunk := range []int{1, 97, 128} {
		var labels []int32
		sc := m.Scan(chunk)
		for {
			vals, cn := sc.Next()
			if cn == 0 {
				break
			}
			out := make([]int32, cn)
			if err := ix.AssignChunk(vals[:cn*d], out, scratch); err != nil {
				t.Fatal(err)
			}
			labels = append(labels, out...)
		}
		if len(labels) != n {
			t.Fatalf("chunk=%d: %d labels for %d records", chunk, len(labels), n)
		}
		for i := range want {
			if labels[i] != want[i] {
				t.Fatalf("chunk=%d record %d: %d vs %d", chunk, i, labels[i], want[i])
			}
		}
	}
}

// TestBatchKernelPropertySweep property-tests the batch kernel against
// AssignRecord: randomized grids swept across dims × bins ×
// cluster-count (crossing the 1-, 2-, and N-word bitset kernels) ×
// block size (tails, exactly one block, block+tail, multi-block), with
// records on exact bin bounds, NaN, ±Inf, and out-of-domain values.
// AssignChunk must reproduce the per-record labels bit-identically;
// the kernels bin only the dims some box leaves a bin out of, and the
// scalar labeler ANDs every dim.
func TestBatchKernelPropertySweep(t *testing.T) {
	r := rng.New(99)
	blockSizes := []int{1, 7, 63, 64, 65, 2*64 + 17}
	// Cluster counts are chosen so total boxes (1–2 per cluster) sweep
	// the word count: ~0, <64, ~64–128, and well past 128 boxes.
	clusterCounts := []int{0, 2, 9, 45, 130}
	const randomTrials = 15
	// Fixed shapes of two-box clusters follow the random trials: d=64,
	// where the per-record bin work dominates, and 512 clusters, whose
	// 1024-box bitset spans 16 words (the record-major N-word kernel),
	// constrain exactly three dims each, so records still land inside
	// them. Three d=32 shapes draw clusters over 2-3 of the same 8
	// dims (pool), at 1, 2 and 4 bitset words, so every kernel skips
	// most dims, often the first. In the last, every box spans every
	// bin of each dim it constrains (spanAll): no dim is binned, and
	// every record, NaN and ±Inf included, gets the first cluster's
	// label.
	shapes := []struct {
		d, clusters, pool int
		spanAll           bool
	}{{64, 48, 0, false}, {10, 512, 0, false}, {32, 20, 8, false}, {32, 50, 8, false}, {32, 100, 8, false}, {6, 5, 0, true}}
	for trial := 0; trial < randomTrials+len(shapes); trial++ {
		d := 1 + r.Intn(8)
		ncl := clusterCounts[trial%len(clusterCounts)]
		fixedK, fixedBoxes, poolSize, spanAll := 0, 0, 0, false
		if trial >= randomTrials {
			shape := shapes[trial-randomTrials]
			d, ncl, fixedK, fixedBoxes = shape.d, shape.clusters, 3, 2
			poolSize, spanAll = shape.pool, shape.spanAll
		}
		domains := make([]dataset.Range, d)
		for i := range domains {
			lo := r.In(-100, 100)
			domains[i] = dataset.Range{Lo: lo, Hi: lo + r.In(0.1, 200)}
		}
		xi := 2 + r.Intn(30)
		g := uniformGrid(t, domains, xi)
		var pool []int
		if poolSize > 0 {
			pool = r.Perm(d)[:poolSize]
		}

		cs := make([]cluster.Cluster, 0, ncl)
		for ci := 0; ci < ncl; ci++ {
			k := 1 + r.Intn(d)
			if fixedK > 0 {
				k = fixedK
			}
			dims := make([]uint8, 0, k)
			if pool != nil {
				k = 2 + r.Intn(2)
				for _, x := range r.Perm(len(pool))[:k] {
					dims = append(dims, uint8(pool[x]))
				}
			} else {
				for _, di := range r.Perm(d)[:k] {
					dims = append(dims, uint8(di))
				}
			}
			for i := 1; i < len(dims); i++ { // insertion sort ascending
				for j := i; j > 0 && dims[j-1] > dims[j]; j-- {
					dims[j-1], dims[j] = dims[j], dims[j-1]
				}
			}
			nb := 1 + r.Intn(2)
			if fixedBoxes > 0 {
				nb = fixedBoxes
			}
			boxes := make([]cluster.Box, 0, nb)
			for bi := 0; bi < nb; bi++ {
				lo := make([]uint8, k)
				hi := make([]uint8, k)
				for x := range lo {
					a, b := r.Intn(xi), r.Intn(xi)
					if a > b {
						a, b = b, a
					}
					if spanAll {
						a, b = 0, xi-1
					}
					lo[x], hi[x] = uint8(a), uint8(b)
				}
				boxes = append(boxes, cluster.Box{BinLo: lo, BinHi: hi})
			}
			cs = append(cs, cluster.Cluster{Dims: dims, Boxes: boxes})
		}
		ix := mustIndex(t, g, cs)
		if fixedBoxes > 0 && ix.Boxes() != fixedBoxes*ncl {
			t.Fatalf("trial %d: %d boxes, want %d", trial, ix.Boxes(), fixedBoxes*ncl)
		}

		hostile := func(i int) float64 {
			dom := domains[i]
			switch r.Intn(12) {
			case 0: // exact bin bound
				bins := g.Dims[i].Bins
				b := bins[r.Intn(len(bins))]
				if r.Intn(2) == 0 {
					return b.Bounds.Lo
				}
				return b.Bounds.Hi
			case 1:
				return dom.Lo - r.In(0, 10)
			case 2:
				return dom.Hi + r.In(0, 10)
			case 3:
				return math.NaN()
			case 4:
				return math.Inf(1)
			case 5:
				return math.Inf(-1)
			default:
				return r.In(dom.Lo, dom.Hi)
			}
		}
		for _, n := range blockSizes {
			flat := make([]float64, n*d)
			for i := range flat {
				flat[i] = hostile(i % d)
			}
			want := make([]int32, n)
			scratch := ix.Scratch()
			for i := 0; i < n; i++ {
				var err error
				want[i], err = ix.AssignRecord(flat[i*d:(i+1)*d], scratch)
				if err != nil {
					t.Fatal(err)
				}
			}
			got := make([]int32, n)
			if err := ix.AssignChunk(flat, got, ix.Scratch()); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (clusters=%d boxes=%d) n=%d: AssignChunk record %d labeled %d, AssignRecord says %d",
						trial, ncl, ix.Boxes(), n, i, got[i], want[i])
				}
				if spanAll && got[i] != 0 {
					t.Fatalf("trial %d n=%d: record %v labeled %d; every box spans every bin, so it is cluster 0's",
						trial, n, flat[i*d:(i+1)*d], got[i])
				}
			}
		}
	}
}

// genClustered builds a data set with an embedded 3-dim box cluster.
func genClustered(t *testing.T, d, records int, seed uint64) *dataset.Matrix {
	t.Helper()
	ext := []dataset.Range{{Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}, {Lo: 20, Hi: 32}}
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:     d,
		Records:  records,
		Clusters: []datagen.Cluster{datagen.UniformBox([]int{1, 3, 4}, ext, 0)},
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFittedModelMatchesEngineAssign runs the real engine on generated
// data and checks the compiled index reproduces Result.Assign exactly
// — adaptive grids included.
func TestFittedModelMatchesEngineAssign(t *testing.T) {
	m := genClustered(t, 6, 3000, 3)
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("engine found no clusters; the differential test needs at least one")
	}
	ix := mustIndex(t, res.Grid, res.Clusters)
	want, err := res.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int32, m.NumRecords())
	if err := ix.AssignChunk(m.Values, got, ix.Scratch()); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d labels vs oracle's %d", len(got), len(want))
	}
	mismatch := 0
	for i := range want {
		if got[i] != want[i] {
			mismatch++
		}
	}
	if mismatch > 0 {
		t.Errorf("%d/%d labels differ from the linear oracle", mismatch, len(want))
	}
}

// BenchmarkAssignChunk labels a 4096-record chunk of 10-d records drawn
// around two clusters over dims {1,4} and {0,3,6}, the shape of the
// daemon's framed requests, against two models on one grid of 5-wide
// bins over [0,200): "bound=5of10" has boxes over exactly those dims,
// so the kernels bin five dims; in "bound=10of10" each cluster also
// constrains every other dim to all bins but the last, which no record
// reaches (the data lie in [0,100)), so both label every record the
// same but the second leaves no dim to skip.
func BenchmarkAssignChunk(b *testing.B) {
	const d, n, xi = 10, 4096, 40
	m, _, err := datagen.Generate(datagen.Spec{
		Dims:    d,
		Records: n,
		Clusters: []datagen.Cluster{
			datagen.UniformBox([]int{1, 4}, []dataset.Range{{Lo: 20, Hi: 40}, {Lo: 55, Hi: 80}}, 0),
			datagen.UniformBox([]int{0, 3, 6}, []dataset.Range{{Lo: 10, Hi: 30}, {Lo: 40, Hi: 70}, {Lo: 60, Hi: 90}}, 0),
		},
		Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	domains := make([]dataset.Range, d)
	for i := range domains {
		domains[i] = dataset.Range{Lo: 0, Hi: 200}
	}
	g := uniformGrid(b, domains, xi)
	vals := m.Values[:n*d]
	// Each cluster as (dim, first bin, last bin) runs.
	runs := [][][3]uint8{
		{{1, 4, 7}, {4, 11, 15}},
		{{0, 2, 5}, {3, 8, 13}, {6, 12, 17}},
	}
	model := func(every bool) []cluster.Cluster {
		cs := make([]cluster.Cluster, len(runs))
		for ci, rs := range runs {
			var dims, lo, hi []uint8
			for di := uint8(0); di < d; di++ {
				a, z, ok := uint8(0), uint8(xi-2), every
				for _, r := range rs {
					if r[0] == di {
						a, z, ok = r[1], r[2], true
					}
				}
				if ok {
					dims, lo, hi = append(dims, di), append(lo, a), append(hi, z)
				}
			}
			cs[ci] = clusterOver(dims, lo, hi)
		}
		return cs
	}
	var ref []int32 // the first model's labels, which the second must repeat
	for _, bc := range []struct {
		name  string
		every bool
	}{{"bound=5of10", false}, {"bound=10of10", true}} {
		b.Run(bc.name, func(b *testing.B) {
			ix, err := assign.New(g, model(bc.every))
			if err != nil {
				b.Fatal(err)
			}
			labels, scratch := make([]int32, n), ix.Scratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ix.AssignChunk(vals, labels, scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			if ref == nil {
				ref = append([]int32(nil), labels...)
			} else if !slices.Equal(labels, ref) {
				b.Fatal("the two models label the chunk differently")
			}
		})
	}
}
