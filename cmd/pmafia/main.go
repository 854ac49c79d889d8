// Command pmafia clusters a data set with pMAFIA (or the CLIQUE
// baseline) and prints the discovered clusters as minimal DNF
// expressions.
//
// Usage:
//
//	pmafia [flags] <input>
//
// The input is a CSV file (numeric columns, optional header) or a
// .pmaf binary record file produced by cmd/datagen. Examples:
//
//	pmafia data.csv
//	pmafia -alpha 2 -procs 8 data.pmaf
//	pmafia -clique -bins 10 -tau 0.01 data.csv
//	pmafia -procs 8 -trace trace.json -metrics metrics.json data.pmaf
//
// With -trace the run writes a Chrome trace_event file (open it in
// chrome://tracing or Perfetto: one track per rank, one span per engine
// phase, flow arrows for the modeled collective messages); -metrics
// writes the flat counters and per-phase aggregates as JSON; -pprof
// serves net/http/pprof on the given address for the duration of the
// run; -critical-path prints the per-phase/per-rank "why not faster"
// attribution after the run (exact in Sim mode); -telemetry serves
// live /metrics (Prometheus text), /phase (JSON), and /healthz on the
// given address while the run executes.
//
// With -ckpt-dir the fit writes a checkpoint after each completed
// lattice level and recoverable failures (rank crash, panic, detected
// stall) are retried from the latest good checkpoint up to
// -max-restarts times with -restart-backoff capped exponential
// backoff; -resume continues a previous process's fit from its
// checkpoint directory. Exit codes:
//
//	0  the fit completed without any restart or resume
//	1  unrecoverable failure (bad input, I/O error, cancellation, or a
//	   rank failure with no restart budget)
//	2  usage error
//	3  the fit completed, but only after restarting or resuming from a
//	   checkpoint (success, flagged so operators notice the recovery)
//	4  the fit kept failing recoverably until -max-restarts ran out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pmafia/internal/ckpt"
	"pmafia/internal/clique"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/faults"
	"pmafia/internal/grid"
	"pmafia/internal/mafia"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
	"pmafia/internal/obs/serve"
	"pmafia/internal/sp2"
	"pmafia/internal/supervisor"
	"pmafia/internal/tabular"
)

// options collects every flag of the command.
type options struct {
	alpha, beta float64
	procs       int
	mode        string
	chunk       int
	workers     int
	useClique   bool
	bins        int
	tau         float64
	levels      bool
	verbose     bool
	tracePath   string
	metricsPath string
	pprofAddr   string
	faultSpec   string
	collTimeout time.Duration
	critPath    bool
	telemetry   string
	saveModel   string

	ckptDir        string
	resume         bool
	maxRestarts    int
	restartBackoff time.Duration
}

func main() {
	var o options
	flag.Float64Var(&o.alpha, "alpha", 1.5, "density deviation factor α (pMAFIA)")
	flag.Float64Var(&o.beta, "beta", 50, "adaptive-grid merge threshold β in percent (pMAFIA)")
	flag.IntVar(&o.procs, "procs", 1, "processors of the simulated machine")
	flag.StringVar(&o.mode, "mode", "sim", "machine mode: sim (virtual time) or real (concurrent)")
	flag.IntVar(&o.chunk, "chunk", 8192, "records per out-of-core read (B)")
	flag.IntVar(&o.workers, "workers", 1, "intra-rank worker goroutines sharding each chunk's records")
	flag.BoolVar(&o.useClique, "clique", false, "run the CLIQUE baseline instead of pMAFIA")
	flag.IntVar(&o.bins, "bins", 10, "bins per dimension ξ (CLIQUE)")
	flag.Float64Var(&o.tau, "tau", 0.01, "global density threshold τ as a fraction of N (CLIQUE)")
	flag.BoolVar(&o.levels, "levels", false, "print per-level counts and the per-collective breakdown")
	flag.BoolVar(&o.verbose, "v", false, "print per-cluster DNF expressions in full")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace_event JSON file (one track per rank)")
	flag.StringVar(&o.metricsPath, "metrics", "", "write flat metrics JSON (counters + per-phase aggregates)")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.BoolVar(&o.critPath, "critical-path", false, "print the critical-path attribution (\"why not faster\") after the run")
	flag.StringVar(&o.telemetry, "telemetry", "", "serve live telemetry on this address (/metrics, /phase, /healthz) for the duration of the run")
	flag.StringVar(&o.saveModel, "save-model", "", "persist the fitted model (grid, clusters, level stats) to this path for serving with pmafiad")
	flag.StringVar(&o.faultSpec, "faults", "", `inject deterministic faults, e.g. "crash:rank=1,coll=3;readerr:chunk=2,times=5" (see internal/faults)`)
	flag.DurationVar(&o.collTimeout, "coll-timeout", 0, "declare a rank failed after it misses a collective for this long (0: no detection; defaults to 30s when -faults is set)")
	flag.StringVar(&o.ckptDir, "ckpt-dir", "", "write a checkpoint after each completed level into this directory, and restart failed fits from the latest good one")
	flag.BoolVar(&o.resume, "resume", false, "resume from the latest valid checkpoint in -ckpt-dir before fitting")
	flag.IntVar(&o.maxRestarts, "max-restarts", 0, "retry a recoverably-failed fit up to this many times (from the latest checkpoint when -ckpt-dir is set)")
	flag.DurationVar(&o.restartBackoff, "restart-backoff", 100*time.Millisecond, "delay before the first restart, doubling per restart (capped at 10s)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pmafia [flags] <input.csv|input.pmaf>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if _, err := faults.Parse(o.faultSpec); err != nil {
		fmt.Fprintln(os.Stderr, "pmafia: -faults:", err)
		os.Exit(2)
	}
	if o.resume && o.ckptDir == "" {
		fmt.Fprintln(os.Stderr, "pmafia: -resume requires -ckpt-dir")
		os.Exit(2)
	}
	if o.maxRestarts < 0 {
		fmt.Fprintln(os.Stderr, "pmafia: -max-restarts must be >= 0")
		os.Exit(2)
	}
	if o.useClique && (o.ckptDir != "" || o.resume || o.maxRestarts > 0) {
		fmt.Fprintln(os.Stderr, "pmafia: checkpoint/restart flags (-ckpt-dir, -resume, -max-restarts) are not supported with -clique")
		os.Exit(2)
	}
	if o.pprofAddr != "" {
		fmt.Fprintf(os.Stderr, "pmafia: pprof listening on http://%s/debug/pprof/\n", o.pprofAddr)
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pmafia: pprof:", err)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	recovered, err := run(ctx, flag.Arg(0), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmafia:", err)
		var ex *supervisor.ExhaustedError
		if errors.As(err, &ex) {
			os.Exit(4)
		}
		os.Exit(1)
	}
	if recovered {
		os.Exit(3)
	}
}

func run(ctx context.Context, path string, o options) (recovered bool, err error) {
	src, domains, err := open(path)
	if err != nil {
		return false, err
	}
	plan, err := faults.Parse(o.faultSpec)
	if err != nil {
		return false, err
	}
	mcfg := sp2.Config{Procs: o.procs, Ctx: ctx, Faults: plan, CollectiveTimeout: o.collTimeout}
	if plan != nil && mcfg.CollectiveTimeout == 0 {
		// Fault-injection runs must terminate: arm the failure detector
		// even when the operator did not pick a timeout.
		mcfg.CollectiveTimeout = 30 * time.Second
	}
	switch o.mode {
	case "sim":
		mcfg.Mode = sp2.Sim
	case "real":
		mcfg.Mode = sp2.Real
	default:
		return false, fmt.Errorf("unknown mode %q", o.mode)
	}
	var rec *obs.Recorder
	if o.tracePath != "" || o.metricsPath != "" || o.critPath || o.telemetry != "" {
		rec = obs.New()
	}
	if o.telemetry != "" {
		srv, err := serve.Start(o.telemetry, rec)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(os.Stderr, "pmafia: telemetry on http://%s/metrics\n", srv.Addr())
		defer srv.Close()
	}
	if f, ok := src.(*diskio.File); ok {
		f.SetRecorder(rec)
		f.SetFaults(plan)
	}
	shards := shardSource(src, o.procs)

	var res *mafia.Result
	if o.useClique {
		ccfg := clique.Config{Bins: o.bins, Tau: o.tau, ChunkRecords: o.chunk, Workers: o.workers, Recorder: rec}
		res, err = clique.RunParallel(shards, domains, ccfg, mcfg)
	} else {
		cfg := mafia.Config{
			Adaptive:     grid.AdaptiveParams{Alpha: o.alpha, BetaPercent: o.beta},
			ChunkRecords: o.chunk,
			Workers:      o.workers,
			Recorder:     rec,
		}
		if o.ckptDir != "" || o.maxRestarts > 0 {
			var out *supervisor.Outcome
			out, err = runSupervised(ctx, path, shards, domains, cfg, mcfg, rec, plan, o)
			if err == nil {
				res = out.Result
				recovered = out.Recovered
				if out.Recovered {
					fmt.Fprintf(os.Stderr, "pmafia: recovered: %d restart(s), resumed from checkpoint level %d\n",
						out.Restarts, out.ResumedLevel)
				}
			}
		} else {
			res, err = mafia.RunParallel(shards, domains, cfg, mcfg)
		}
	}
	if err != nil {
		return false, err
	}

	fmt.Printf("%d records, %d dimensions, %d processors: %.3fs (comm %.4fs)\n",
		res.N, len(res.Grid.Dims), o.procs, res.Seconds, res.Report.CommSeconds)
	if o.levels {
		for _, l := range res.Levels {
			fmt.Printf("  level %d: %d raw CDUs, %d unique, %d dense\n", l.K, l.NcduRaw, l.Ncdu, l.Ndu)
		}
		if err := collectiveTable(res.Report).Render(os.Stdout); err != nil {
			return recovered, err
		}
	}
	if o.saveModel != "" {
		if err := modelio.Save(o.saveModel, res); err != nil {
			return recovered, fmt.Errorf("saving model: %w", err)
		}
		fmt.Printf("model written to %s\n", o.saveModel)
	}
	fmt.Printf("%d cluster(s) discovered:\n", len(res.Clusters))
	for i, c := range res.Clusters {
		dims := make([]string, len(c.Dims))
		for j, d := range c.Dims {
			dims[j] = fmt.Sprint(d)
		}
		fmt.Printf("  #%d dims {%s}, %d dense units, %d boxes\n", i+1, strings.Join(dims, ","), c.Units.Len(), len(c.Boxes))
		if o.verbose {
			fmt.Printf("     %s\n", c.DNF(res.Grid))
		} else {
			for j, b := range c.Bounds(res.Grid) {
				fmt.Printf("     d%s ∈ %v\n", dims[j], b)
			}
		}
	}
	if rec != nil {
		if err := rec.PhaseTable().Render(os.Stdout); err != nil {
			return recovered, err
		}
		if o.critPath {
			cp := rec.CriticalPath(res.Report.RankSeconds)
			if err := cp.Table().Render(os.Stdout); err != nil {
				return recovered, err
			}
			if err := cp.RankTable().Render(os.Stdout); err != nil {
				return recovered, err
			}
			if o.mode == "real" {
				fmt.Println("note: Real-mode critical path uses wall-clock arrivals with modeled comm costs; Sim mode (-mode sim) is exact")
			}
		}
		if o.tracePath != "" {
			if err := writeTo(o.tracePath, rec.WriteChromeTrace); err != nil {
				return recovered, err
			}
			fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", o.tracePath)
		}
		if o.metricsPath != "" {
			if err := writeTo(o.metricsPath, rec.WriteMetricsJSON); err != nil {
				return recovered, err
			}
			fmt.Printf("metrics written to %s\n", o.metricsPath)
		}
	}
	return recovered, nil
}

// runSupervised wraps the fit in the checkpoint/restart supervisor.
// With -ckpt-dir a manager bound to the run's fingerprint (absolute
// input path, file size, config hash) persists level-barrier
// checkpoints; without it restarts re-run from scratch.
func runSupervised(ctx context.Context, path string, shards []dataset.Source, domains []dataset.Range, cfg mafia.Config, mcfg sp2.Config, rec *obs.Recorder, plan *faults.Plan, o options) (*supervisor.Outcome, error) {
	var mgr *ckpt.Manager
	if o.ckptDir != "" {
		abs, err := filepath.Abs(path)
		if err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		hash, err := ckpt.ConfigHash(cfg, shards[0].Dims())
		if err != nil {
			return nil, err
		}
		fp := ckpt.Fingerprint{DataPath: abs, DataBytes: st.Size(), ConfigHash: hash}
		mgr, err = ckpt.NewManager(o.ckptDir, fp, ckpt.Options{Recorder: rec, Faults: plan})
		if err != nil {
			return nil, err
		}
	}
	return supervisor.Run(ctx, shards, domains, cfg, mcfg, supervisor.Options{
		Manager:     mgr,
		MaxRestarts: o.maxRestarts,
		Backoff:     o.restartBackoff,
		Resume:      o.resume,
		Recorder:    rec,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pmafia: "+format+"\n", args...)
		},
	})
}

// collectiveTable renders the machine report's per-collective-kind
// breakdown.
func collectiveTable(rep *sp2.Report) *tabular.Table {
	t := tabular.New("Collectives by kind", "kind", "count", "bytes", "modeled s")
	kinds := make([]string, 0, len(rep.ByKind))
	for k := range rep.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		st := rep.ByKind[k]
		t.AddRow(k, tabular.I(int(st.Count)), tabular.I(int(st.Bytes)), tabular.F(st.Seconds))
	}
	return t
}

// writeTo creates path and streams write into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// open loads the input as a record file or CSV and returns the source
// plus its domains (nil when they must be discovered).
func open(path string) (dataset.Source, []dataset.Range, error) {
	if strings.HasSuffix(path, ".pmaf") {
		f, err := diskio.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return f, f.Domains(), nil
	}
	fh, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fh.Close()
	m, _, err := dataset.ReadCSV(fh)
	if err != nil {
		return nil, nil, err
	}
	return m, nil, nil
}

// shardSource splits the source for parallel runs. In-memory matrices
// are sliced; record files are range-scanned per rank via staging-free
// ScanRange shards.
func shardSource(src dataset.Source, p int) []dataset.Source {
	if p <= 1 {
		return []dataset.Source{src}
	}
	out := make([]dataset.Source, p)
	switch s := src.(type) {
	case *dataset.Matrix:
		n := s.NumRecords()
		for r := 0; r < p; r++ {
			lo, hi := diskio.ShareBounds(n, r, p)
			out[r] = s.Slice(lo, hi)
		}
	case *diskio.File:
		n := s.NumRecords()
		for r := 0; r < p; r++ {
			lo, hi := diskio.ShareBounds(n, r, p)
			out[r] = &fileRange{f: s, lo: lo, hi: hi}
		}
	default:
		for r := 0; r < p; r++ {
			out[r] = src
		}
	}
	return out
}

// fileRange adapts a contiguous record range of a file to Source.
type fileRange struct {
	f      *diskio.File
	lo, hi int
}

func (r *fileRange) Dims() int       { return r.f.Dims() }
func (r *fileRange) NumRecords() int { return r.hi - r.lo }
func (r *fileRange) Scan(chunk int) dataset.Scanner {
	return r.f.ScanRange(r.lo, r.hi, chunk)
}
