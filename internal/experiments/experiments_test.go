package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pmafia/internal/sp2"
	"pmafia/internal/tabular"
)

// smallOpts keeps the harness fast for unit testing.
func smallOpts() *Options {
	return &Options{
		Scale: 0.15,
		Seed:  7,
		Procs: []int{1, 2, 4},
		Mode:  sp2.Sim,
		Out:   &bytes.Buffer{},
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Error("table1 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := RunOne("nope", smallOpts()); err == nil {
		t.Error("unknown id: want error")
	}
}

func TestFig3SpeedupShape(t *testing.T) {
	// Use a larger data set than the other harness tests: with too few
	// records the replicated per-rank work (grid construction, cluster
	// assembly) and the modeled communication outweigh the population
	// passes, and the speedup test becomes noise-bound. Since levels
	// after the first count from the binned copy, 264 k records leave
	// the 4-rank speedup within a few hundredths of the bound in some
	// runs; 396 k keep it clear.
	o := smallOpts()
	o.Scale = 6
	o.Procs = []int{1, 4}
	o.normalize()
	tables, err := runFig3(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != len(o.Procs) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The paper reports near-linear speedups; at this reduced scale
	// demand at least half-linear on 4 ranks.
	last := tb.Rows[len(tb.Rows)-1]
	speedup := parseF(t, last[2])
	if speedup < 2 {
		t.Errorf("speedup %.2f on 4 procs, want >= 2", speedup)
	}
}

func TestTable1CliqueSlower(t *testing.T) {
	o := smallOpts()
	o.Procs = []int{1, 2}
	o.normalize()
	tables, err := runTable1Fig4(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	for _, row := range tb.Rows {
		over := parseF(t, row[5])
		if over < 1.5 {
			t.Errorf("procs %s: pMAFIA only %.2fx faster than CLIQUE — paper reports 40-80x at full scale", row[0], over)
		}
	}
}

func TestTable2ExactBinomials(t *testing.T) {
	o := smallOpts()
	o.normalize()
	tables, err := runTable2(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// pMAFIA rows must be exactly C(7,k) for k=2..7 (paper's Table 2).
	want := map[string][2]string{
		"2": {"21", "21"}, "3": {"35", "35"}, "4": {"35", "35"},
		"5": {"21", "21"}, "6": {"7", "7"}, "7": {"1", "1"},
	}
	for _, row := range tb.Rows {
		if w, ok := want[row[0]]; ok {
			if row[1] != w[0] || row[2] != w[1] {
				t.Errorf("dimension %s: pMAFIA Ncdu/Ndu = %s/%s, want %s/%s", row[0], row[1], row[2], w[0], w[1])
			}
			// CLIQUE must generate at least as many CDUs.
			mc := parseF(t, row[1])
			cc := parseF(t, row[3])
			if cc < mc {
				t.Errorf("dimension %s: CLIQUE Ncdu %v < pMAFIA %v", row[0], cc, mc)
			}
		}
	}
}

func TestFig5LinearInN(t *testing.T) {
	// At the harness's small scale the per-level fixed costs (grid,
	// modeled communication) outweigh the population passes and the
	// per-record time of the smallest data set drifts; 75 k-600 k
	// records keep the passes dominant (at 55 k-440 k, with levels
	// after the first counted from the binned copy, the drift comes
	// within a few hundredths of the bound).
	o := smallOpts()
	o.Scale = 3
	o.Procs = []int{4}
	o.normalize()
	tables, err := runFig5(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) < 3 {
		t.Fatal("too few rows")
	}
	// time per 1k records should stay roughly flat (linear scaling):
	// ratio of last to first within 3x.
	first := parseF(t, tb.Rows[0][2])
	last := parseF(t, tb.Rows[len(tb.Rows)-1][2])
	if last > first*3 || first > last*3 {
		t.Errorf("per-record time drifts: %.4f vs %.4f s/1k", first, last)
	}
}

func TestFig7GrowsWithClusterDim(t *testing.T) {
	o := smallOpts()
	o.Procs = []int{4}
	o.normalize()
	tables, err := runFig7(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// Total CDUs must grow superlinearly with cluster dimensionality
	// (sum of binomials).
	firstC := parseF(t, tb.Rows[0][2])
	lastC := parseF(t, tb.Rows[len(tb.Rows)-1][2])
	if lastC < firstC*4 {
		t.Errorf("CDU count barely grew: %v -> %v", firstC, lastC)
	}
}

func TestTable3QualityOrdering(t *testing.T) {
	o := smallOpts()
	o.normalize()
	tables, err := runTable3(o)
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var mafiaRecall, cliqueRecall float64
	var mafiaExact string
	for _, row := range tb.Rows {
		switch {
		case strings.HasPrefix(row[0], "pMAFIA"):
			mafiaRecall = parseF(t, row[3])
			mafiaExact = row[2]
		case strings.HasPrefix(row[0], "CLIQUE (fixed"):
			cliqueRecall = parseF(t, row[3])
		}
	}
	if mafiaExact != "true" {
		t.Error("pMAFIA did not recover both subspaces exactly")
	}
	if mafiaRecall < cliqueRecall {
		t.Errorf("pMAFIA volume recall %.3f < CLIQUE %.3f", mafiaRecall, cliqueRecall)
	}
	if mafiaRecall < 0.9 {
		t.Errorf("pMAFIA volume recall %.3f, want >= 0.9", mafiaRecall)
	}
}

func TestRunOneRendersOutput(t *testing.T) {
	var out bytes.Buffer
	var csv bytes.Buffer
	o := smallOpts()
	o.Out = &out
	o.CSV = &csv
	o.Procs = []int{1, 2}
	if err := RunOne("ablation-count", o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "strategy") {
		t.Errorf("missing table header: %q", out.String())
	}
	if !strings.Contains(csv.String(), "strategy,time_s") {
		t.Errorf("missing CSV: %q", csv.String())
	}
}

func TestModelFitQuality(t *testing.T) {
	// 180 k records: below that the replicated work and the modeled
	// communication leave too little data-parallel work to fit. Since
	// levels after the first count from the binned copy, 99 k records
	// leave half the data-parallel work they did, and the fit's R²
	// falls into scheduler noise.
	o := smallOpts()
	o.Scale = 3
	o.normalize()
	tables, err := runModelFit(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d", len(tables))
	}
	fit := tables[1].Rows[0]
	r2 := parseF(t, fit[4])
	// The harness takes best-of-3 per point, but a loaded single-core
	// CI host still perturbs sub-10ms measurements; standalone runs
	// reach R2 ~ 0.97 (EXPERIMENTS.md).
	if r2 < 0.6 {
		t.Errorf("Amdahl fit R2 = %v, want >= 0.6 (the run should follow serial + work/p)", r2)
	}
	frac := parseF(t, fit[2])
	if frac < 0 || frac > 0.9 {
		t.Errorf("serial fraction = %v out of a plausible range", frac)
	}
}

func TestPhasesPopulationDominates(t *testing.T) {
	o := smallOpts()
	o.Scale = 0.5
	o.normalize()
	tables, err := runPhases(o)
	if err != nil {
		t.Fatal(err)
	}
	totals := tables[1].Rows[0]
	share := parseF(t, totals[2])
	// §5.3: the bulk of the time goes to populating CDUs.
	if share < 0.4 {
		t.Errorf("population share = %v, want the dominant phase (>= 0.4)", share)
	}
}

func TestSVGOutput(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	o.Procs = []int{1, 2, 4}
	o.SVGDir = dir
	if err := RunOne("fig7", o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "polyline") {
		t.Errorf("fig7.svg content unexpected: %.120s", data)
	}
	// Non-figure experiments must not emit SVGs.
	if err := RunOne("ablation-count", o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ablation-count.svg")); err == nil {
		t.Error("non-figure experiment produced an SVG")
	}
}

func TestTableChartConversion(t *testing.T) {
	tb := tabular.New("t", "x", "y1", "label", "y2")
	tb.AddRow("1", "10", "a", "0.5")
	tb.AddRow("2", "20", "b", "0.25")
	c, err := tableChart(tb, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Series) != 2 {
		t.Fatalf("series = %d (non-numeric column must be skipped)", len(c.Series))
	}
	if c.Series[0].Name != "y1" || c.Series[1].Name != "y2" {
		t.Errorf("series names %q %q", c.Series[0].Name, c.Series[1].Name)
	}
	if _, err := tableChart(tabular.New("e", "a", "b"), false, false); err == nil {
		t.Error("empty table: want error")
	}
	bad := tabular.New("b", "x", "y")
	bad.AddRow("p", "1")
	bad.AddRow("q", "2")
	if _, err := tableChart(bad, false, false); err == nil {
		t.Error("non-numeric x: want error")
	}
}

// TestRunAllSmoke executes every registered experiment end-to-end at a
// tiny scale, so each driver's data generation, run and rendering path
// stays exercised.
func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var out bytes.Buffer
	o := &Options{
		Scale: 0.05,
		Seed:  13,
		Procs: []int{1, 2},
		Mode:  sp2.Sim,
		Out:   &out,
	}
	if err := RunAll(o); err != nil {
		t.Fatal(err)
	}
	for _, e := range All() {
		if !strings.Contains(out.String(), e.Title) {
			t.Errorf("output missing experiment %q", e.ID)
		}
	}
}
