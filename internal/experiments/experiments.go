// Package experiments regenerates every table and figure of the
// paper's evaluation (§5): parallel run times and speedups (Table 1,
// Figures 3-4), candidate/dense unit counts (Table 2), scalability with
// database size, data dimensionality and cluster dimensionality
// (Figures 5-7), clustering quality against CLIQUE (Table 3), and the
// real-data experiments (Table 4, §5.9.2, Table 5) on the synthetic
// stand-ins. Each experiment prints the same rows/series the paper
// reports; record counts are scaled down by default and multiplied by
// Options.Scale.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/mafia"
	"pmafia/internal/plot"
	"pmafia/internal/sp2"
	"pmafia/internal/tabular"
)

// Options configures a harness run.
type Options struct {
	// Scale multiplies every record count (1 = the scaled-down
	// defaults; ~140 reproduces the paper's full sizes).
	Scale float64
	// Seed drives all data generation.
	Seed uint64
	// Procs are the machine sizes swept by the parallel experiments.
	Procs []int
	// Mode selects the sp2 machine mode (Sim by default: honest
	// per-rank virtual time on any host).
	Mode sp2.Mode
	// Out receives the rendered tables.
	Out io.Writer
	// CSV, when non-nil, receives CSV copies of every table.
	CSV io.Writer
	// JSON, when non-nil, receives one machine-readable document
	// describing every table of the run (see flushJSON), so the
	// performance trajectory can be diffed across commits.
	JSON io.Writer
	// SVGDir, when non-empty, receives an SVG line chart per figure
	// experiment (fig3, table1, fig5-7, table5).
	SVGDir string

	// collected accumulates per-experiment results for the JSON export.
	collected []jsonExperiment
}

// jsonTable mirrors tabular.Table with lowercase JSON keys.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// jsonExperiment is one experiment's contribution to the JSON export.
type jsonExperiment struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Tables []jsonTable `json:"tables"`
}

// flushJSON writes the collected experiment tables as one indented
// JSON document and resets the collector.
func (o *Options) flushJSON() error {
	if o.JSON == nil {
		return nil
	}
	doc := struct {
		Schema      string           `json:"schema"`
		Scale       float64          `json:"scale"`
		Seed        uint64           `json:"seed"`
		Procs       []int            `json:"procs"`
		Mode        string           `json:"mode"`
		Experiments []jsonExperiment `json:"experiments"`
	}{
		Schema:      "pmafia.experiments/v1",
		Scale:       o.Scale,
		Seed:        o.Seed,
		Procs:       o.Procs,
		Mode:        "sim",
		Experiments: o.collected,
	}
	if o.Mode == sp2.Real {
		doc.Mode = "real"
	}
	o.collected = nil
	enc := json.NewEncoder(o.JSON)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 20000615 // ICPP 2000 vintage
	}
	if len(o.Procs) == 0 {
		o.Procs = []int{1, 2, 4, 8, 16}
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

// scaled returns n records scaled by the options.
func (o *Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 100 {
		v = 100
	}
	return v
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID is the handle used by `cmd/experiments -run <id>`.
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Run executes the experiment and returns its tables.
	Run func(o *Options) ([]*tabular.Table, error)
}

// All lists every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "Figure 3: parallel run times of pMAFIA (30-d data, 5 clusters in 6-d subspaces)", runFig3},
		{"table1", "Table 1 + Figure 4: pMAFIA vs CLIQUE execution times and speedup (15-d data, 1 cluster in 5-d)", runTable1Fig4},
		{"table2", "Table 2 + §5.5: CDUs and dense units per level, pMAFIA vs modified CLIQUE (10-d data, one 7-d cluster)", runTable2},
		{"fig5", "Figure 5: scalability with database size (20-d data, 5 clusters in 5-d subspaces, 16 procs)", runFig5},
		{"fig6", "Figure 6: scalability with data dimensionality (3 clusters in 5-d subspaces, 16 procs)", runFig6},
		{"fig7", "Figure 7: scalability with cluster dimensionality (50-d data, 16 procs)", runFig7},
		{"table3", "Table 3: quality of clustering, CLIQUE (fixed/variable bins) vs pMAFIA (10-d data, 2 clusters in 4-d)", runTable3},
		{"table4", "Table 4: clusters discovered in the DAX-like data set (alpha = 2)", runTable4},
		{"ionosphere", "§5.9.2: ionosphere-like data, clusters at alpha = 2 vs alpha = 3", runIonosphere},
		{"table5", "Table 5: parallel performance on the EachMovie-like ratings data", runTable5},
		{"ablation-grid", "Ablation: adaptive vs uniform grids at fixed data (candidates, time, quality)", runAblationGrid},
		{"ablation-count", "Ablation: subspace-grouped vs direct population counting", runAblationCount},
		{"ablation-join", "Ablation: MAFIA any-share join vs CLIQUE prefix join on the same adaptive grid", runAblationJoin},
		{"ablation-beta", "Ablation: window-merge threshold beta vs bins, time and quality", runAblationBeta},
		{"ablation-latency", "Ablation: communication latency sensitivity of the 16-proc run", runAblationLatency},
		{"ablation-tau", "Ablation: task-parallel threshold tau (divide vs replicate task work)", runAblationTau},
		{"model-fit", "Analysis (§4.5): Amdahl fit of the measured processor sweep", runModelFit},
		{"phases", "§5.3: per-level time breakdown — population passes dominate", runPhases},
		{"critical-path", "Analysis: critical-path attribution of the simulated makespan (compute by phase, comm by kind)", runCriticalPath},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment, rendering tables as they finish.
func RunAll(o *Options) error {
	o.normalize()
	for _, e := range All() {
		if err := runOne(e, o); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return o.flushJSON()
}

// RunOne executes a single experiment by id.
func RunOne(id string, o *Options) error {
	o.normalize()
	e, ok := ByID(id)
	if !ok {
		ids := make([]string, 0)
		for _, e := range All() {
			ids = append(ids, e.ID)
		}
		sort.Strings(ids)
		return fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
	}
	if err := runOne(e, o); err != nil {
		return err
	}
	return o.flushJSON()
}

func runOne(e Experiment, o *Options) error {
	fmt.Fprintf(o.Out, "== %s ==\n", e.Title)
	tables, err := e.Run(o)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Render(o.Out); err != nil {
			return err
		}
		fmt.Fprintln(o.Out)
		if o.CSV != nil {
			if err := t.RenderCSV(o.CSV); err != nil {
				return err
			}
		}
	}
	if o.SVGDir != "" {
		if err := writeSVG(o.SVGDir, e.ID, tables); err != nil {
			return err
		}
	}
	if o.JSON != nil {
		je := jsonExperiment{ID: e.ID, Title: e.Title}
		for _, t := range tables {
			je.Tables = append(je.Tables, jsonTable{Title: t.Title, Headers: t.Headers, Rows: t.Rows})
		}
		o.collected = append(o.collected, je)
	}
	return nil
}

// shard splits an in-memory matrix into p contiguous shards, the block
// distribution a staged shared file would produce.
func shard(m *dataset.Matrix, p int) []dataset.Source {
	out := make([]dataset.Source, p)
	n := m.NumRecords()
	for r := 0; r < p; r++ {
		lo, hi := diskio.ShareBounds(n, r, p)
		out[r] = m.Slice(lo, hi)
	}
	return out
}

// fitBestOfThree fits m, sharded over p ranks with the given domains,
// three times and returns the fastest run: scheduler noise on a shared
// host only ever inflates a measurement, so the minimum is the
// estimate least disturbed by it.
func fitBestOfThree(m *dataset.Matrix, p int, doms []dataset.Range, mode sp2.Mode) (*mafia.Result, error) {
	var best *mafia.Result
	for rep := 0; rep < 3; rep++ {
		res, err := mafia.RunParallel(shard(m, p), doms, mafia.Config{}, sp2.Config{Procs: p, Mode: mode})
		if err != nil {
			return nil, err
		}
		if best == nil || res.Seconds < best.Seconds {
			best = res
		}
	}
	return best, nil
}

// boxCluster builds a single-box cluster with the same extent in every
// listed dimension.
func boxCluster(lo, hi float64, dims ...int) datagen.Cluster {
	ext := make([]dataset.Range, len(dims))
	for i := range ext {
		ext[i] = dataset.Range{Lo: lo, Hi: hi}
	}
	return datagen.UniformBox(dims, ext, 0)
}

// fullDomains returns [0,100) domains for d dims — the generator's
// attribute ranges — so runs skip the domain-discovery pass exactly
// like the paper's setup, where attribute ranges are known.
func fullDomains(d int) []dataset.Range {
	doms := make([]dataset.Range, d)
	for i := range doms {
		doms[i] = dataset.Range{Lo: 0, Hi: 100}
	}
	return doms
}

// figureAxes marks which experiments produce figure-style series and
// how to scale their axes (log-x for processor sweeps).
var figureAxes = map[string]struct{ logX, logY bool }{
	"fig3":   {true, true},
	"table1": {true, true},
	"fig5":   {false, false},
	"fig6":   {false, false},
	"fig7":   {false, false},
	"table5": {true, true},
}

// tableChart converts a harness table into a line chart: the first
// column supplies x, every other fully-numeric column becomes a
// series.
func tableChart(t *tabular.Table, logX, logY bool) (*plot.Chart, error) {
	if len(t.Rows) < 2 {
		return nil, fmt.Errorf("experiments: table %q too small to plot", t.Title)
	}
	parse := func(col int) ([]float64, bool) {
		vals := make([]float64, len(t.Rows))
		for i, row := range t.Rows {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return nil, false
			}
			vals[i] = v
		}
		return vals, true
	}
	xs, ok := parse(0)
	if !ok {
		return nil, fmt.Errorf("experiments: table %q has a non-numeric x column", t.Title)
	}
	c := &plot.Chart{Title: t.Title, XLabel: t.Headers[0], LogX: logX, LogY: logY}
	for col := 1; col < len(t.Headers); col++ {
		ys, ok := parse(col)
		if !ok {
			continue
		}
		if logY {
			positive := true
			for _, v := range ys {
				if v <= 0 {
					positive = false
				}
			}
			if !positive {
				continue
			}
		}
		c.Series = append(c.Series, plot.Series{Name: t.Headers[col], X: xs, Y: ys})
	}
	if len(c.Series) == 0 {
		return nil, fmt.Errorf("experiments: table %q has no numeric series", t.Title)
	}
	if len(c.Series) == 1 {
		c.YLabel = c.Series[0].Name
	}
	return c, nil
}

// writeSVG renders the experiment's first table as <id>.svg in dir.
func writeSVG(dir, id string, tables []*tabular.Table) error {
	axes, ok := figureAxes[id]
	if !ok || len(tables) == 0 {
		return nil
	}
	chart, err := tableChart(tables[0], axes.logX, axes.logY)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return chart.SVG(f, 640, 420)
}
