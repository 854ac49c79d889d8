package mafia

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/obs"
	"pmafia/internal/sp2"
)

var updateCritGolden = flag.Bool("update-golden", false, "rewrite the critical-path golden file")

// runDiskInstrumented executes a seeded p-rank Sim run out of core
// with the worker pool on — the configuration that exercises every
// counter emitter in the stack.
func runDiskInstrumented(t *testing.T, p int) (*Result, *obs.Recorder) {
	t.Helper()
	m, _ := genData(t, 6, 4000, 77, box(20, 45, 1, 3), box(55, 80, 0, 2, 4))
	path := filepath.Join(t.TempDir(), "crit.pmaf")
	if err := diskio.WriteSource(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := diskio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	f.SetRecorder(rec)
	shards := make([]dataset.Source, p)
	for r := 0; r < p; r++ {
		lo, hi := diskio.ShareBounds(f.NumRecords(), r, p)
		shards[r] = &rangeShard{f: f, lo: lo, hi: hi}
	}
	res, err := RunParallel(shards, nil, Config{
		ChunkRecords: 256, Workers: 2, Recorder: rec,
	}, sp2.Config{Procs: p, Mode: sp2.Sim, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// TestAllEmittedCountersAreRegistered is the registry's closing seam:
// a full out-of-core run with workers must emit no
// counter the obs registry does not know, so dashboards and the
// telemetry exposition never meet an unnamed metric.
func TestAllEmittedCountersAreRegistered(t *testing.T) {
	_, rec := runDiskInstrumented(t, 2)
	counters := rec.Metrics().Counters
	if len(counters) == 0 {
		t.Fatal("run emitted no counters")
	}
	for name := range counters {
		if !obs.IsRegistered(name) {
			t.Errorf("counter %q emitted but not registered in internal/obs/names.go", name)
		}
	}
	// The run's configuration must have reached every emitter family.
	for _, want := range []string{
		obs.CtrDiskChunks, obs.CtrPoolMergeNS,
		obs.CtrHistogramRecords, obs.CtrDenseUnits,
		obs.CommCountCounter(obs.KindReduce),
	} {
		if _, ok := counters[want]; !ok {
			t.Errorf("expected counter %q was not emitted (have %d counters)", want, len(counters))
		}
	}
	// The same seam closes over histogram families: anything Observed
	// must belong to the histogram registry. (The engine run emits none
	// today — the serving daemon is the histogram emitter and closes
	// this seam over live traffic in internal/daemon's
	// TestAllEmittedMetricsAreRegistered — but a future engine histogram
	// lands here first.)
	for name := range rec.Histograms() {
		if !obs.IsRegisteredHistogram(name) {
			t.Errorf("histogram %q emitted but not registered in internal/obs/names.go", name)
		}
	}
}

// TestEngineCriticalPathEqualsMakespan: on the full engine the
// critical-path reconstruction must tile the Sim virtual makespan
// exactly — compute segments plus modeled comm equal the report.
func TestEngineCriticalPathEqualsMakespan(t *testing.T) {
	res, rec := runDiskInstrumented(t, 4)
	cp := rec.CriticalPath(res.Report.RankSeconds)
	if math.Abs(cp.Total-res.Report.ParallelSeconds) > 1e-9 {
		t.Errorf("critical-path total %v, Sim makespan %v", cp.Total, res.Report.ParallelSeconds)
	}
	if math.Abs(cp.CommSeconds-res.Report.CommSeconds) > 1e-9 {
		t.Errorf("critical-path comm %v, report comm %v", cp.CommSeconds, res.Report.CommSeconds)
	}
	if cp.Collectives != int(res.Report.Collectives) {
		t.Errorf("walked %d collectives, report has %d", cp.Collectives, res.Report.Collectives)
	}
	phases := map[string]bool{}
	for _, pc := range cp.Phases {
		phases[pc.Phase] = true
	}
	for _, want := range []string{"histogram", "populate"} {
		if !phases[want] {
			t.Errorf("critical path attributes no time to %q (have %v)", want, phases)
		}
	}
}

// TestCriticalPathTableGolden pins the structural columns of the
// "why not faster" table for a seeded p=4 Sim run: which
// (kind, phase, level) rows appear, with how many collectives and how
// many modeled bytes. Measured seconds and shares vary run to run and
// are masked; rows are sorted canonically because the rendered order
// (descending by measured seconds) is wall-clock-dependent. Refresh
// with: go test ./internal/mafia -run TestCriticalPathTableGolden -update-golden
func TestCriticalPathTableGolden(t *testing.T) {
	res, rec := runDiskInstrumented(t, 4)
	tbl := rec.CriticalPath(res.Report.RankSeconds).Table()

	rows := make([]string, 0, len(tbl.Rows))
	for _, r := range tbl.Rows {
		if r[1] == "(outside spans)" {
			continue // presence depends on sub-microsecond bookkeeping
		}
		rows = append(rows, strings.Join([]string{r[0], r[1], r[2], "<s>", "<%>", r[5], r[6]}, " | "))
	}
	sort.Strings(rows)
	got := strings.Join(rows, "\n") + "\n"

	golden := filepath.Join("testdata", "critical_path.golden.txt")
	if *updateCritGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("critical-path table structure differs from golden (rerun with -update-golden to accept):\ngot:\n%swant:\n%s", got, want)
	}
}
