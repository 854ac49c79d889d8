// Command perfbench is the repository benchmark. One invocation runs
// one seeded workload against the shipped code for a fixed window,
// checks every output, and prints each metric by name with its unit;
// the last line of standard output is the JSON result. See README.md
// for the workloads, the metric definitions and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	daemon   string // path of the pmafiad binary (serve workloads)
	workdir  string // scratch directory for generated inputs
	short    bool   // shrink inputs for the self-test
	// corruptLabel corrupts one expected label in the serve label
	// gate, so the self-test can show the gate failing.
	corruptLabel bool
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, in order. Every
// workload reports all of them (see README.md for what each means on
// each workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rec_per_s", "rec/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"mem_mb", "MB"},
	{"refit_ms", "ms"},
	{"ingest_rec_per_s", "rec/s"},
}

// perLayer are the metrics a --trace 1 run prints, in order. A layer a
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"diskio.read_s", "s"},
	{"diskio.chunks", "count"},
	{"diskio.mb", "MB"},
	{"mafia.domains_s", "s"},
	{"histogram.build_s", "s"},
	{"grid.bins", "count"},
	{"gen.generate_s", "s"},
	{"gen.cdus_raw", "count"},
	{"unit.dedup_s", "s"},
	{"unit.keep_ratio", "ratio"},
	{"mafia.populate_s", "s"},
	{"mafia.cdus", "count"},
	{"mafia.cdu_records", "count"},
	{"mafia.identify_s", "s"},
	{"mafia.dense_ratio", "ratio"},
	{"sp2.collectives", "count"},
	{"sp2.mb", "MB"},
	{"sp2.wait_s", "s"},
	{"cluster.assemble_s", "s"},
	{"cluster.count", "count"},
	{"fit.residual_s", "s"},
	{"daemon.queue_ms", "ms"},
	{"daemon.decode_ms", "ms"},
	{"daemon.encode_ms", "ms"},
	{"daemon.overhead_ms", "ms"},
	{"http.rtt_ms", "ms"},
	{"daemon.cpu_us_per_req", "us"},
	{"assign.kernel_ms", "ms"},
	{"assign.records_per_call", "count"},
	{"assign.compile_ms", "ms"},
	{"dataset.csv_decode_ms", "ms"},
	{"ingest.append_ms", "ms"},
	{"ingest.refit_server_ms", "ms"},
	{"modelio.load_ms", "ms"},
	{"swap.swaps", "count"},
	{"swap.errors", "count"},
	{"swap.lag_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_count", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"host.steal_pct", "%"},
	{"loadgen.cpu_us_per_req", "us"},
}

// overheadPrefix names the per-layer metrics that carry the tracing
// overhead: traced minus untraced value of each end-to-end metric.
const overheadPrefix = "trace_overhead."

// perLayerAll is every metric a --trace 1 run prints: the per-layer
// metrics and the tracing overhead of each end-to-end metric.
func perLayerAll() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		out = append(out, metricDef{overheadPrefix + m.name, m.unit})
	}
	return out
}

// workload is one seeded input set and the traffic run against it.
type workload struct {
	name string
	run  func(o *options, traced bool) (*outcome, error)
}

var workloads = []workload{
	{"fit_scan", runFitScan},
	{"fit_deep", runFitDeep},
	{"serve_small", runServeSmall},
	{"serve_ingest", runServeIngest},
}

// outcome is what one pass over a workload measured.
type outcome struct {
	attempted, failed int64
	// problems lists every failed correctness gate; an empty list
	// means every output checked out.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	context  map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, context: map[string]any{}}
}

// failf records a failed correctness gate.
func (oc *outcome) failf(format string, args ...any) {
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: fit_scan, fit_deep, serve_small or serve_ingest")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "pmafiad binary the serve workloads start")
	flag.StringVar(&o.workdir, "workdir", "", "directory for generated inputs, models and traces")
	flag.Parse()
	o.trace = traceFlag == 1
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		os.Exit(1)
	}()
	res, err := run(&o)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes the requested workload and builds the result: an
// untraced pass for --trace 0; for --trace 1 an untraced pass and a
// traced pass, whose difference is the tracing overhead.
func run(o *options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if o.workdir == "" {
		return nil, errors.New("-workdir is required")
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("%s-%d", o.workload, o.seed)))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o.workdir = dir
	// Generated inputs are large (fit_scan writes ~180 MB); only the
	// traces of a traced run are kept.
	defer removeInputs(dir)

	host := startHostWindow()
	plain, err := wl.run(o, false)
	if err != nil {
		return nil, err
	}
	final := plain
	if o.trace {
		traced, err := wl.run(o, true)
		if err != nil {
			return nil, err
		}
		for _, m := range endToEnd {
			traced.layers[overheadPrefix+m.name] = traced.e2e[m.name] - plain.e2e[m.name]
		}
		traced.attempted += plain.attempted
		traced.failed += plain.failed
		traced.problems = append(plain.problems, traced.problems...)
		final = traced
	}
	steal, load := host.end()
	final.layers["host.steal_pct"] = steal

	ctx := runContext(o, steal, load)
	for k, v := range final.context {
		ctx[k] = v
	}
	report(os.Stdout, o, final, ctx)

	res := &result{
		Correct:   len(final.problems) == 0,
		Attempted: final.attempted,
		Failed:    final.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
		res.Failed = 1
	}
	if o.trace {
		for _, m := range perLayerAll() {
			res.Metrics[m.name] = metric{final.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{final.e2e[m.name], m.unit}
		}
	}
	return res, nil
}

// removeInputs deletes everything in dir except trace files.
func removeInputs(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	kept := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" || filepath.Ext(e.Name()) == ".log" {
			kept++
			continue
		}
		os.RemoveAll(filepath.Join(dir, e.Name()))
	}
	if kept == 0 {
		os.Remove(dir)
	}
}

// report prints the human-readable lines that precede the JSON result:
// the run context, every gate failure, and each metric with its unit.
func report(w *os.File, o *options, oc *outcome, ctx map[string]any) {
	line, _ := json.Marshal(ctx)
	fmt.Fprintf(w, "context %s\n", line)
	for _, p := range oc.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	failPct := 0.0
	if oc.attempted > 0 {
		failPct = 100 * float64(oc.failed) / float64(oc.attempted)
	}
	fmt.Fprintf(w, "%-28s %14d %s\n", "attempted", oc.attempted, "ops")
	fmt.Fprintf(w, "%-28s %14.4f %s\n", "fail_pct", failPct, "%")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, oc.e2e[m.name], m.unit)
	}
	if o.trace {
		for _, m := range perLayerAll() {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, oc.layers[m.name], m.unit)
		}
	}
}

// deadline is the end of a measured window that starts now.
func deadline(o *options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}
