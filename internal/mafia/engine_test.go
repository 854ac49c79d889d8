package mafia

import (
	"slices"
	"sync"
	"testing"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/sp2"
	"pmafia/internal/unit"
)

// genData builds a data set with the given clusters over d dims.
func genData(t *testing.T, d, records int, seed uint64, clusters ...datagen.Cluster) (*dataset.Matrix, *datagen.Truth) {
	t.Helper()
	m, truth, err := datagen.Generate(datagen.Spec{
		Dims:     d,
		Records:  records,
		Clusters: clusters,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, truth
}

func box(lo, hi float64, dims ...int) datagen.Cluster {
	ext := make([]dataset.Range, len(dims))
	for i := range ext {
		ext[i] = dataset.Range{Lo: lo, Hi: hi}
	}
	return datagen.UniformBox(dims, ext, 0)
}

// hasCluster reports whether the result contains a cluster over
// exactly the given dims whose bounds overlap [lo,hi) in each of them.
func hasCluster(res *Result, lo, hi float64, dims ...int) bool {
	for _, c := range res.Clusters {
		if len(c.Dims) != len(dims) {
			continue
		}
		match := true
		for i, d := range dims {
			if int(c.Dims[i]) != d {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		b := c.Bounds(res.Grid)
		ok := true
		for i := range dims {
			if !b[i].Overlaps(dataset.Range{Lo: lo, Hi: hi}) {
				ok = false
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// sameCounts compares the deterministic count fields of two levels,
// ignoring wall-clock instrumentation.
func sameCounts(a, b LevelStats) bool {
	return a.K == b.K && a.NcduRaw == b.NcduRaw && a.Ncdu == b.Ncdu && a.Ndu == b.Ndu
}

func TestSerialFindsEmbeddedCluster(t *testing.T) {
	m, _ := genData(t, 6, 4000, 1, box(20, 32, 1, 3, 4))
	res, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCluster(res, 20, 32, 1, 3, 4) {
		for _, c := range res.Clusters {
			t.Logf("found: %v bounds %v", c.String(), c.Bounds(res.Grid))
		}
		t.Fatal("embedded 3-dim cluster not found")
	}
	// Highest-dimensionality reporting: no cluster may span more dims
	// than the embedded one.
	for _, c := range res.Clusters {
		if len(c.Dims) > 3 {
			t.Errorf("spurious %d-dim cluster %v", len(c.Dims), c.String())
		}
	}
}

func TestSerialTwoClustersDifferentSubspaces(t *testing.T) {
	m, _ := genData(t, 10, 8000, 2,
		box(10, 22, 1, 7, 8, 9),
		box(60, 72, 2, 3, 4, 5),
	)
	res, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCluster(res, 10, 22, 1, 7, 8, 9) {
		t.Error("cluster {1,7,8,9} not found")
	}
	if !hasCluster(res, 60, 72, 2, 3, 4, 5) {
		t.Error("cluster {2,3,4,5} not found")
	}
}

func TestTable2ExactCduCounts(t *testing.T) {
	// Paper Table 2: one 7-dim cluster in 10-dim data. pMAFIA must
	// produce exactly Ncdu = Ndu = C(7,k) at every level k=2..7 and
	// nothing at level 8.
	m, _ := genData(t, 10, 20000, 3, box(30, 42, 0, 2, 3, 5, 6, 8, 9))
	res, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	choose := map[int]int{1: 7, 2: 21, 3: 35, 4: 35, 5: 21, 6: 7, 7: 1, 8: 0}
	for _, lvl := range res.Levels {
		want, ok := choose[lvl.K]
		if !ok {
			continue
		}
		if lvl.K == 1 {
			if lvl.Ndu != want {
				t.Errorf("level 1: Ndu = %d, want %d (one dense bin per cluster dim)", lvl.Ndu, want)
			}
			continue
		}
		if lvl.Ncdu != want {
			t.Errorf("level %d: Ncdu = %d, want C(7,%d) = %d", lvl.K, lvl.Ncdu, lvl.K, want)
		}
		if lvl.Ndu != want {
			t.Errorf("level %d: Ndu = %d, want %d", lvl.K, lvl.Ndu, want)
		}
	}
	if len(res.Clusters) != 1 || len(res.Clusters[0].Dims) != 7 {
		t.Errorf("clusters = %v, want exactly one 7-dim cluster", res.Clusters)
	}
}

func TestUniformDataYieldsNoClusters(t *testing.T) {
	m, _ := genData(t, 8, 5000, 4)
	res, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Errorf("uniform data produced %d clusters", len(res.Clusters))
	}
}

// densePops returns a Config whose Prune hook records the global
// population of every dense unit, per level, and passes the units on
// unchanged; every rank must report the same populations.
func densePops(t *testing.T, workers int) (Config, map[int][]int64) {
	var mu sync.Mutex
	pops := map[int][]int64{}
	return Config{Workers: workers, Prune: func(du *unit.Array, counts []int64) *unit.Array {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := pops[du.K]; ok && !slices.Equal(prev, counts) {
			t.Errorf("level %d: ranks disagree on dense populations: %v vs %v", du.K, prev, counts)
		}
		pops[du.K] = slices.Clone(counts)
		return du
	}}, pops
}

// TestParallelMatchesSerial: at p ∈ {2, 4, 16} ranks of 1 or 3 workers
// — at p = 16 each rank's binned copy is a few partial blocks, and 3
// workers write and read it pooled — every level's CDU and dense-unit
// counts, every dense unit's population, and every cluster equal the
// serial run's.
func TestParallelMatchesSerial(t *testing.T) {
	m, _ := genData(t, 8, 6000, 5, box(40, 52, 0, 2, 5))
	cfg, want := densePops(t, 0)
	serial, err := Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 16} {
		for _, workers := range []int{1, 3} {
			shards := make([]dataset.Source, p)
			n := m.NumRecords()
			for r := 0; r < p; r++ {
				lo, hi := diskio.ShareBounds(n, r, p)
				shards[r] = m.Slice(lo, hi)
			}
			cfg, got := densePops(t, workers)
			par, err := RunParallel(shards, nil, cfg, sp2.Config{Procs: p})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Clusters) != len(serial.Clusters) {
				t.Fatalf("p=%d workers=%d: %d clusters vs serial %d", p, workers, len(par.Clusters), len(serial.Clusters))
			}
			if len(par.Levels) != len(serial.Levels) {
				t.Fatalf("p=%d workers=%d: %d levels vs serial %d", p, workers, len(par.Levels), len(serial.Levels))
			}
			for i := range par.Levels {
				if !sameCounts(par.Levels[i], serial.Levels[i]) {
					t.Errorf("p=%d workers=%d level %d: %+v vs serial %+v", p, workers, i, par.Levels[i], serial.Levels[i])
				}
			}
			if len(got) != len(want) {
				t.Errorf("p=%d workers=%d: dense populations for %d levels, serial %d", p, workers, len(got), len(want))
			}
			for k, w := range want {
				if !slices.Equal(got[k], w) {
					t.Errorf("p=%d workers=%d level %d: dense populations %v, serial %v", p, workers, k, got[k], w)
				}
			}
			for i := range par.Clusters {
				if par.Clusters[i].String() != serial.Clusters[i].String() {
					t.Errorf("p=%d workers=%d cluster %d: %v vs %v", p, workers, i, par.Clusters[i].String(), serial.Clusters[i].String())
				}
			}
		}
	}
}

func TestParallelLowTauMatchesSerial(t *testing.T) {
	// Force the task-parallel paths (Tau=1) and verify identical
	// results.
	m, _ := genData(t, 8, 6000, 6, box(40, 52, 0, 2, 5))
	serial, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shards := []dataset.Source{m.Slice(0, m.NumRecords()/2), m.Slice(m.NumRecords()/2, m.NumRecords())}
	par, err := RunParallel(shards, nil, Config{Tau: 1}, sp2.Config{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Clusters) != len(serial.Clusters) {
		t.Fatalf("clusters %d vs %d", len(par.Clusters), len(serial.Clusters))
	}
	for i := range par.Levels {
		if !sameCounts(par.Levels[i], serial.Levels[i]) {
			t.Errorf("level %d: %+v vs %+v", i, par.Levels[i], serial.Levels[i])
		}
	}
}

func TestCountStrategiesAgree(t *testing.T) {
	m, _ := genData(t, 6, 4000, 7, box(10, 25, 1, 4))
	a, err := Run(m, Config{Count: CountGrouped})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, Config{Count: CountDirect})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("levels differ: %d vs %d", len(a.Levels), len(b.Levels))
	}
	for i := range a.Levels {
		if !sameCounts(a.Levels[i], b.Levels[i]) {
			t.Errorf("level %d: grouped %+v vs direct %+v", i, a.Levels[i], b.Levels[i])
		}
	}
}

func TestUniformGridCLIQUEMode(t *testing.T) {
	m, _ := genData(t, 6, 5000, 8, box(20, 40, 1, 3))
	res, err := Run(m, Config{Grid: UniformGrid, UniformBins: 10, UniformTau: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCluster(res, 20, 40, 1, 3) {
		t.Error("uniform-grid run missed the cluster")
	}
}

func TestExplicitDomains(t *testing.T) {
	m, _ := genData(t, 4, 3000, 9, box(50, 62, 0, 2))
	doms := make([]dataset.Range, 4)
	for i := range doms {
		doms[i] = dataset.Range{Lo: 0, Hi: 100}
	}
	res, err := RunParallel([]dataset.Source{m}, doms, Config{}, sp2.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCluster(res, 50, 62, 0, 2) {
		t.Error("cluster not found with explicit domains")
	}
}

func TestConfigErrors(t *testing.T) {
	m, _ := genData(t, 3, 100, 10)
	if _, err := Run(m, Config{FineUnits: -1}); err == nil {
		t.Error("negative FineUnits: want error")
	}
	if _, err := Run(m, Config{Grid: GridKind(99)}); err == nil {
		t.Error("unknown grid kind: want error")
	}
	if _, err := RunParallel(nil, nil, Config{}, sp2.Config{}); err == nil {
		t.Error("no shards: want error")
	}
	if _, err := RunParallel([]dataset.Source{m}, nil, Config{}, sp2.Config{Procs: 3}); err == nil {
		t.Error("shard/proc mismatch: want error")
	}
	if _, err := RunParallel([]dataset.Source{m}, make([]dataset.Range, 1), Config{}, sp2.Config{Procs: 1}); err == nil {
		t.Error("domain count mismatch: want error")
	}
}

func TestEmptyDataset(t *testing.T) {
	if _, err := Run(dataset.NewMatrix(0, 3), Config{}); err == nil {
		t.Error("empty data: want error")
	}
}

func TestResultReportPopulated(t *testing.T) {
	m, _ := genData(t, 4, 2000, 11, box(10, 20, 0, 1))
	res, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Seconds <= 0 || res.N != m.NumRecords() {
		t.Errorf("report=%v seconds=%v n=%d", res.Report, res.Seconds, res.N)
	}
}

func TestDiskBackedRun(t *testing.T) {
	m, _ := genData(t, 5, 3000, 12, box(70, 82, 1, 3))
	dir := t.TempDir()
	path := dir + "/data.pmaf"
	if err := diskio.WriteSource(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := diskio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(f, Config{ChunkRecords: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCluster(res, 70, 82, 1, 3) {
		t.Error("disk-backed run missed the cluster")
	}
}

func TestDiskStagedParallelRun(t *testing.T) {
	m, _ := genData(t, 5, 3000, 13, box(30, 42, 0, 4))
	dir := t.TempDir()
	shared := dir + "/shared.pmaf"
	if err := diskio.WriteSource(shared, m); err != nil {
		t.Fatal(err)
	}
	sf, err := diskio.Open(shared)
	if err != nil {
		t.Fatal(err)
	}
	const p = 3
	shards := make([]dataset.Source, p)
	for r := 0; r < p; r++ {
		local, err := diskio.Stage(sf, dir+"/local", r, p)
		if err != nil {
			t.Fatal(err)
		}
		shards[r] = local
	}
	res, err := RunParallel(shards, sf.Domains(), Config{ChunkRecords: 128}, sp2.Config{Procs: p})
	if err != nil {
		t.Fatal(err)
	}
	if !hasCluster(res, 30, 42, 0, 4) {
		t.Error("staged parallel run missed the cluster")
	}
}

// TestReportedClustersAreActuallyDense recounts each reported
// cluster's dense units against the raw data and checks the density
// invariant end-to-end: every unit of every reported cluster must hold
// more records than the threshold of each of its bins.
func TestReportedClustersAreActuallyDense(t *testing.T) {
	m, _ := genData(t, 8, 8000, 71, box(25, 40, 1, 4, 6))
	res, err := Run(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters to verify")
	}
	d := m.Dims()
	binRow := make([]uint8, d)
	for ci := range res.Clusters {
		c := &res.Clusters[ci]
		counts := make([]int64, c.Units.Len())
		for r := 0; r < m.NumRecords(); r++ {
			res.Grid.BinRow(m.Row(r), binRow)
			for u := 0; u < c.Units.Len(); u++ {
				ud, ub := c.Units.Unit(u)
				hit := true
				for x := range ud {
					if binRow[ud[x]] != ub[x] {
						hit = false
						break
					}
				}
				if hit {
					counts[u]++
				}
			}
		}
		for u := 0; u < c.Units.Len(); u++ {
			ud, ub := c.Units.Unit(u)
			for x := range ud {
				thr := res.Grid.Dims[ud[x]].Bins[ub[x]].Threshold
				if float64(counts[u]) <= thr {
					t.Errorf("cluster %d unit %d: recounted %d <= threshold %.1f of bin d%d:b%d",
						ci, u, counts[u], thr, ud[x], ub[x])
				}
			}
		}
	}
}
