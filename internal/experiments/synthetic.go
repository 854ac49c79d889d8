package experiments

import (
	"fmt"

	"pmafia/internal/clique"
	"pmafia/internal/datagen"
	"pmafia/internal/mafia"
	"pmafia/internal/sp2"
	"pmafia/internal/tabular"
)

// fig3Data is the 30-dimensional, 5-clusters-in-6-d-subspaces data set
// of Figure 3 (8.3 M records in the paper, scaled down here).
func fig3Data(o *Options) (*datagen.Spec, error) {
	spec := &datagen.Spec{
		Dims:    30,
		Records: o.scaled(60000),
		Clusters: []datagen.Cluster{
			boxCluster(12, 20, 0, 1, 2, 3, 4, 5),
			boxCluster(30, 38, 6, 7, 8, 9, 10, 11),
			boxCluster(48, 56, 12, 13, 14, 15, 16, 17),
			boxCluster(62, 70, 18, 19, 20, 21, 22, 23),
			boxCluster(80, 88, 24, 25, 26, 27, 28, 29),
		},
		Seed: o.Seed,
	}
	return spec, nil
}

func runFig3(o *Options) ([]*tabular.Table, error) {
	spec, err := fig3Data(o)
	if err != nil {
		return nil, err
	}
	m, _, err := datagen.Generate(*spec)
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("pMAFIA run times, %d-d data, %d records, 5 clusters each of 6 dimensions", spec.Dims, m.NumRecords()),
		"procs", "time_s", "speedup", "efficiency", "comm_s")
	var t1 float64
	for _, p := range o.Procs {
		res, err := fitBestOfThree(m, p, fullDomains(spec.Dims), o.Mode)
		if err != nil {
			return nil, err
		}
		if p == o.Procs[0] {
			t1 = res.Seconds * float64(p) // normalize in case procs[0] != 1
		}
		sp := t1 / res.Seconds
		t.AddRow(tabular.I(p), tabular.F(res.Seconds), tabular.F(sp), tabular.F(sp/float64(p)),
			tabular.F(res.Report.CommSeconds))
	}
	return []*tabular.Table{t}, nil
}

// table1Data is the 15-dimensional, one-cluster-in-5-d data set of
// Table 1 / Figure 4 (300 k records in the paper).
func table1Data(o *Options) (*datagen.Spec, error) {
	spec := &datagen.Spec{
		Dims:    15,
		Records: o.scaled(50000),
		Clusters: []datagen.Cluster{
			boxCluster(35, 43, 2, 5, 8, 11, 14),
		},
		Seed: o.Seed + 1,
	}
	return spec, nil
}

func runTable1Fig4(o *Options) ([]*tabular.Table, error) {
	spec, err := table1Data(o)
	if err != nil {
		return nil, err
	}
	m, _, err := datagen.Generate(*spec)
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("Execution times (s), %d records, 15-d data, 1 cluster in 5 dimensions", m.NumRecords()),
		"procs", "pMAFIA_s", "CLIQUE_s", "pMAFIA_speedup", "CLIQUE_speedup", "speedup_over_CLIQUE")
	var m1, c1 float64
	for _, p := range o.Procs {
		shards := shard(m, p)
		doms := fullDomains(spec.Dims)
		mres, err := mafia.RunParallel(shards, doms, mafia.Config{}, sp2.Config{Procs: p, Mode: o.Mode})
		if err != nil {
			return nil, err
		}
		// The paper runs CLIQUE with 10 bins and a uniform 2% density
		// threshold for this comparison (§5.4).
		cres, err := clique.RunParallel(shards, doms, clique.Config{Bins: 10, Tau: 0.02}, sp2.Config{Procs: p, Mode: o.Mode})
		if err != nil {
			return nil, err
		}
		if p == o.Procs[0] {
			m1 = mres.Seconds * float64(p)
			c1 = cres.Seconds * float64(p)
		}
		t.AddRow(tabular.I(p),
			tabular.F(mres.Seconds), tabular.F(cres.Seconds),
			tabular.F(m1/mres.Seconds), tabular.F(c1/cres.Seconds),
			tabular.F(cres.Seconds/mres.Seconds))
	}
	return []*tabular.Table{t}, nil
}

func runTable2(o *Options) ([]*tabular.Table, error) {
	// One 7-dimensional cluster embedded in 10-dimensional data
	// (5.4 M records in the paper).
	spec := datagen.Spec{
		Dims:    10,
		Records: o.scaled(40000),
		Clusters: []datagen.Cluster{
			boxCluster(30, 42, 0, 2, 3, 5, 6, 8, 9),
		},
		Seed: o.Seed + 2,
	}
	m, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	mres, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		return nil, err
	}
	// The paper's comparison point is its modified implementation of
	// CLIQUE: uniform 10-bin grids, 1% threshold, but the
	// any-(k-2)-share join (§5.5).
	cres, err := clique.Run(m, clique.Config{Bins: 10, Tau: 0.01, Modified: true})
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("CDUs generated per dimension, %d records (pMAFIA vs modified CLIQUE)", m.NumRecords()),
		"dimension", "pMAFIA_Ncdu", "pMAFIA_Ndu", "CLIQUE_Ncdu", "CLIQUE_Ndu")
	maxK := len(mres.Levels)
	if len(cres.Levels) > maxK {
		maxK = len(cres.Levels)
	}
	lookup := func(levels []mafia.LevelStats, k int) (int, int) {
		for _, l := range levels {
			if l.K == k {
				return l.Ncdu, l.Ndu
			}
		}
		return 0, 0
	}
	for k := 2; k <= maxK; k++ {
		mc, md := lookup(mres.Levels, k)
		cc, cd := lookup(cres.Levels, k)
		t.AddRow(tabular.I(k), tabular.I(mc), tabular.I(md), tabular.I(cc), tabular.I(cd))
	}
	t2 := tabular.New("Serial execution time (§5.5)",
		"system", "time_s", "clusters")
	t2.AddRow("pMAFIA", tabular.F(mres.Seconds), tabular.I(len(mres.Clusters)))
	t2.AddRow("modified CLIQUE", tabular.F(cres.Seconds), tabular.I(len(cres.Clusters)))
	return []*tabular.Table{t, t2}, nil
}

func runFig5(o *Options) ([]*tabular.Table, error) {
	// 20-d data, 5 clusters in 5 different 5-d subspaces, 16 procs;
	// N sweeps 1.45 M → 11.8 M in the paper (scaled here).
	p := o.Procs[len(o.Procs)-1]
	t := tabular.New(
		fmt.Sprintf("Time vs database size, 20-d data, 5 clusters each in 5 dimensions, %d procs", p),
		"records", "time_s", "time_per_1k_records_s")
	for _, base := range []int{25000, 50000, 100000, 200000} {
		spec := datagen.Spec{
			Dims:    20,
			Records: o.scaled(base),
			Clusters: []datagen.Cluster{
				boxCluster(10, 18, 0, 1, 2, 3, 4),
				boxCluster(25, 33, 4, 5, 6, 7, 8),
				boxCluster(45, 53, 8, 9, 10, 11, 12),
				boxCluster(60, 68, 12, 13, 14, 15, 16),
				boxCluster(80, 88, 15, 16, 17, 18, 19),
			},
			Seed: o.Seed + 3,
		}
		m, _, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		res, err := fitBestOfThree(m, p, fullDomains(20), o.Mode)
		if err != nil {
			return nil, err
		}
		t.AddRow(tabular.I(m.NumRecords()), tabular.F(res.Seconds),
			tabular.F(res.Seconds/float64(m.NumRecords())*1000))
	}
	return []*tabular.Table{t}, nil
}

func runFig6(o *Options) ([]*tabular.Table, error) {
	// 3 clusters in 5-d subspaces over 9 distinct dims; d sweeps
	// 10 → 100 (250 k records in the paper).
	p := o.Procs[len(o.Procs)-1]
	records := o.scaled(20000)
	t := tabular.New(
		fmt.Sprintf("Time vs data dimensionality, %d records, 3 clusters each in 5 dimensions, %d procs", records, p),
		"dims", "time_s")
	for _, d := range []int{10, 20, 40, 60, 80, 100} {
		spec := datagen.Spec{
			Dims:    d,
			Records: records,
			Clusters: []datagen.Cluster{
				boxCluster(12, 20, 0, 1, 2, 3, 4),
				boxCluster(40, 48, 2, 3, 4, 5, 6),
				boxCluster(70, 78, 4, 5, 6, 7, 8),
			},
			Seed: o.Seed + 4,
		}
		m, _, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		res, err := mafia.RunParallel(shard(m, p), fullDomains(d), mafia.Config{}, sp2.Config{Procs: p, Mode: o.Mode})
		if err != nil {
			return nil, err
		}
		t.AddRow(tabular.I(d), tabular.F(res.Seconds))
	}
	return []*tabular.Table{t}, nil
}

func runFig7(o *Options) ([]*tabular.Table, error) {
	// 50-d data, 1 cluster whose dimensionality sweeps 3 → 8 (650 k
	// records and 3 → 10 in the paper; the loop is exponential in the
	// cluster dimensionality, which already shows clearly by 8).
	p := o.Procs[len(o.Procs)-1]
	records := o.scaled(30000)
	t := tabular.New(
		fmt.Sprintf("Time vs hidden cluster dimensionality, 50-d data, %d records, %d procs", records, p),
		"cluster_dims", "time_s", "total_cdus")
	for _, k := range []int{3, 4, 5, 6, 7, 8} {
		dims := make([]int, k)
		for i := range dims {
			dims[i] = i * 2 // spread over the 50 dims
		}
		spec := datagen.Spec{
			Dims:     50,
			Records:  records,
			Clusters: []datagen.Cluster{boxCluster(30, 40, dims...)},
			Seed:     o.Seed + 5,
		}
		m, _, err := datagen.Generate(spec)
		if err != nil {
			return nil, err
		}
		res, err := mafia.RunParallel(shard(m, p), fullDomains(50), mafia.Config{}, sp2.Config{Procs: p, Mode: o.Mode})
		if err != nil {
			return nil, err
		}
		cdus := 0
		for _, l := range res.Levels {
			if l.K >= 2 { // level 1 is just the bin count
				cdus += l.Ncdu
			}
		}
		t.AddRow(tabular.I(k), tabular.F(res.Seconds), tabular.I(cdus))
	}
	return []*tabular.Table{t}, nil
}
