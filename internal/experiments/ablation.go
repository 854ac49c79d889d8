package experiments

import (
	"fmt"

	"pmafia/internal/datagen"
	"pmafia/internal/gen"
	"pmafia/internal/grid"
	"pmafia/internal/mafia"
	"pmafia/internal/model"
	"pmafia/internal/quality"
	"pmafia/internal/sp2"
	"pmafia/internal/tabular"
)

// ablationSpec is a mid-size data set shared by the ablations: 12-d
// data with two clusters in 4-d subspaces.
func ablationSpec(o *Options) datagen.Spec {
	return datagen.Spec{
		Dims:    12,
		Records: o.scaled(30000),
		Clusters: []datagen.Cluster{
			boxCluster(18, 33, 0, 3, 6, 9),
			boxCluster(55, 70, 1, 4, 7, 10),
		},
		Seed: o.Seed + 10,
	}
}

// runAblationGrid isolates the adaptive-grid design choice: the same
// engine, join and data with adaptive vs uniform binning.
func runAblationGrid(o *Options) ([]*tabular.Table, error) {
	spec := ablationSpec(o)
	m, truth, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("Adaptive vs uniform grids, %d records, 12-d data", m.NumRecords()),
		"grid", "total_cdus", "time_s", "subspaces_exact", "mean_boundary_error")
	cfgs := []struct {
		name string
		cfg  mafia.Config
	}{
		{"adaptive (pMAFIA)", mafia.Config{}},
		{"uniform 5 bins", mafia.Config{Grid: mafia.UniformGrid, UniformBins: 5, UniformTau: 0.02}},
		{"uniform 10 bins", mafia.Config{Grid: mafia.UniformGrid, UniformBins: 10, UniformTau: 0.02}},
		{"uniform 20 bins", mafia.Config{Grid: mafia.UniformGrid, UniformBins: 20, UniformTau: 0.02}},
	}
	for _, c := range cfgs {
		res, err := mafia.Run(m, c.cfg)
		if err != nil {
			return nil, err
		}
		cdus := 0
		for _, l := range res.Levels {
			cdus += l.Ncdu
		}
		q := quality.Evaluate(res, truth)
		t.AddRow(c.name, tabular.I(cdus), tabular.F(res.Seconds),
			fmt.Sprintf("%v", q.AllSubspacesExact), tabular.F(q.MeanBoundaryError))
	}
	return []*tabular.Table{t}, nil
}

// runAblationCount compares the population-counting strategies.
func runAblationCount(o *Options) ([]*tabular.Table, error) {
	spec := ablationSpec(o)
	m, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("Population counting strategy, %d records (adaptive grid = few CDUs; uniform grid = many CDUs)", m.NumRecords()),
		"grid", "strategy", "time_s", "total_cdus")
	for _, gridKind := range []string{"adaptive", "uniform"} {
		for _, c := range []struct {
			name string
			s    mafia.CountStrategy
		}{
			{"subspace-grouped bitset", mafia.CountGrouped},
			{"bit-sliced direct", mafia.CountDirect},
		} {
			cfg := mafia.Config{Count: c.s}
			if gridKind == "uniform" {
				cfg.Grid = mafia.UniformGrid
				cfg.UniformBins = 10
				cfg.UniformTau = 0.01
			}
			res, err := mafia.Run(m, cfg)
			if err != nil {
				return nil, err
			}
			cdus := 0
			for _, l := range res.Levels {
				if l.K >= 2 {
					cdus += l.Ncdu
				}
			}
			t.AddRow(gridKind, c.name, tabular.F(res.Seconds), tabular.I(cdus))
		}
	}
	return []*tabular.Table{t}, nil
}

// runAblationJoin compares candidate generation rules on the same
// adaptive grid: the MAFIA any-(k-2)-share join finds candidates the
// prefix join misses, at the cost of more pair comparisons.
func runAblationJoin(o *Options) ([]*tabular.Table, error) {
	spec := ablationSpec(o)
	m, truth, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("Join rule on the adaptive grid, %d records", m.NumRecords()),
		"join", "total_raw_cdus", "total_cdus", "clusters", "subspaces_exact")
	for _, c := range []struct {
		name string
		join gen.Join
	}{
		{"any (k-2)-share (MAFIA)", gen.MergeMAFIA},
		{"prefix share (CLIQUE)", gen.MergeCLIQUE},
	} {
		res, err := mafia.Run(m, mafia.Config{Join: c.join})
		if err != nil {
			return nil, err
		}
		raw, cdus := 0, 0
		for _, l := range res.Levels {
			raw += l.NcduRaw
			cdus += l.Ncdu
		}
		q := quality.Evaluate(res, truth)
		t.AddRow(c.name, tabular.I(raw), tabular.I(cdus), tabular.I(len(res.Clusters)),
			fmt.Sprintf("%v", q.AllSubspacesExact))
	}
	return []*tabular.Table{t}, nil
}

// runAblationBeta sweeps the window-merge threshold β (§4.4 discusses
// its insensitivity inside 25-75%).
func runAblationBeta(o *Options) ([]*tabular.Table, error) {
	spec := ablationSpec(o)
	m, truth, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("Merge threshold beta sweep, %d records", m.NumRecords()),
		"beta_pct", "total_bins", "time_s", "subspaces_exact", "mean_boundary_error")
	for _, beta := range []float64{15, 25, 50, 75, 90} {
		res, err := mafia.Run(m, mafia.Config{Adaptive: grid.AdaptiveParams{BetaPercent: beta}})
		if err != nil {
			return nil, err
		}
		q := quality.Evaluate(res, truth)
		t.AddRow(tabular.F(beta), tabular.I(res.Grid.TotalBins()), tabular.F(res.Seconds),
			fmt.Sprintf("%v", q.AllSubspacesExact), tabular.F(q.MeanBoundaryError))
	}
	return []*tabular.Table{t}, nil
}

// runAblationLatency sweeps the modeled switch latency to show where
// communication would start to matter (§4.5's αSpk term).
func runAblationLatency(o *Options) ([]*tabular.Table, error) {
	spec := ablationSpec(o)
	m, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	p := o.Procs[len(o.Procs)-1]
	t := tabular.New(
		fmt.Sprintf("Communication latency sensitivity, %d records, %d procs", m.NumRecords(), p),
		"latency", "time_s", "comm_s", "comm_fraction")
	for _, lat := range []float64{29.3e-6, 1e-3, 10e-3, 29.3e-3} {
		res, err := mafia.RunParallel(shard(m, p), fullDomains(spec.Dims), mafia.Config{},
			sp2.Config{Procs: p, Mode: o.Mode, LatencySec: lat})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%.4gms", lat*1000)
		t.AddRow(label, tabular.F(res.Seconds), tabular.F(res.Report.CommSeconds),
			tabular.F(res.Report.CommSeconds/res.Seconds))
	}
	return []*tabular.Table{t}, nil
}

// runModelFit validates the paper's §4.5 running-time analysis: a
// sweep over processor counts is fitted to the Amdahl form
// T(p) = serial + work/p; a high R² and a small serial fraction
// quantify the "heavily data parallel" claim behind Figure 3.
func runModelFit(o *Options) ([]*tabular.Table, error) {
	spec := datagen.Spec{
		Dims:    20,
		Records: o.scaled(60000),
		Clusters: []datagen.Cluster{
			boxCluster(15, 23, 0, 4, 8, 12, 16),
			boxCluster(60, 68, 1, 5, 9, 13, 17),
		},
		Seed: o.Seed + 11,
	}
	m, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	procs := []int{1, 2, 3, 4, 6, 8, 12, 16}
	times := make([]float64, len(procs))
	t := tabular.New(
		fmt.Sprintf("Running-time model fit, %d records, 20-d data", m.NumRecords()),
		"procs", "measured_s", "fitted_s")
	for i, p := range procs {
		res, err := fitBestOfThree(m, p, fullDomains(spec.Dims), o.Mode)
		if err != nil {
			return nil, err
		}
		times[i] = res.Seconds
	}
	fit, err := model.FitAmdahl(procs, times)
	if err != nil {
		return nil, err
	}
	for i, p := range procs {
		t.AddRow(tabular.I(p), tabular.F(times[i]), tabular.F(fit.Predict(p)))
	}
	t2 := tabular.New("Amdahl decomposition (T(p) = serial + work/p)",
		"serial_s", "work_s", "serial_fraction", "max_speedup", "R2")
	t2.AddRow(tabular.F(fit.Serial), tabular.F(fit.Work),
		tabular.F(fit.SerialFraction()), tabular.F(fit.MaxSpeedup()), tabular.F(fit.R2))
	return []*tabular.Table{t, t2}, nil
}

// runAblationTau sweeps τ, the minimum item count before a
// task-parallel step is divided among ranks: τ=1 divides everything
// (communication per tiny step), a huge τ makes every rank redo all
// task work (the paper's guard against dividing trivial work).
func runAblationTau(o *Options) ([]*tabular.Table, error) {
	spec := ablationSpec(o)
	m, _, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	p := o.Procs[len(o.Procs)-1]
	t := tabular.New(
		fmt.Sprintf("Task-parallel threshold tau sweep, %d records, %d procs", m.NumRecords(), p),
		"tau", "time_s", "comm_s", "collectives")
	for _, tau := range []int{1, 64, 1 << 30} {
		res, err := mafia.RunParallel(shard(m, p), fullDomains(spec.Dims), mafia.Config{Tau: tau},
			sp2.Config{Procs: p, Mode: o.Mode})
		if err != nil {
			return nil, err
		}
		label := tabular.I(tau)
		if tau == 1<<30 {
			label = "inf (all ranks do all task work)"
		}
		t.AddRow(label, tabular.F(res.Seconds), tabular.F(res.Report.CommSeconds),
			tabular.I(int(res.Report.Collectives)))
	}
	return []*tabular.Table{t}, nil
}

// runPhases validates §5.3's observation that "bulk of the time is
// taken in populating the candidate dense units": a serial run is
// instrumented per level and the population pass's share of the total
// is reported.
func runPhases(o *Options) ([]*tabular.Table, error) {
	spec, err := fig3Data(o)
	if err != nil {
		return nil, err
	}
	m, _, err := datagen.Generate(*spec)
	if err != nil {
		return nil, err
	}
	res, err := mafia.Run(m, mafia.Config{})
	if err != nil {
		return nil, err
	}
	t := tabular.New(
		fmt.Sprintf("Per-level time breakdown (serial), %d records, %d-d data", m.NumRecords(), spec.Dims),
		"level", "ncdu", "level_s", "populate_s", "populate_share")
	var total, pop float64
	for _, l := range res.Levels {
		total += l.Seconds
		pop += l.PopulateSeconds
		share := 0.0
		if l.Seconds > 0 {
			share = l.PopulateSeconds / l.Seconds
		}
		t.AddRow(tabular.I(l.K), tabular.I(l.Ncdu), tabular.F(l.Seconds), tabular.F(l.PopulateSeconds), tabular.F(share))
	}
	t2 := tabular.New("Totals", "levels_s", "populate_s", "populate_share_of_levels")
	share := 0.0
	if total > 0 {
		share = pop / total
	}
	t2.AddRow(tabular.F(total), tabular.F(pop), tabular.F(share))
	return []*tabular.Table{t, t2}, nil
}
