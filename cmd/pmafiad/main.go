// Command pmafiad serves saved clustering models for batch record
// assignment. Models are the files cmd/pmafia writes with -save-model;
// the daemon keeps an LRU-capped set of them compiled into assignment
// indexes and labels request bodies against them. Served models are
// hot-swapped: when a model file is rewritten on disk, a rate-limited
// freshness check (-swap-check) recompiles it off the request path and
// atomically swaps the new generation in without dropping traffic.
// With -ingest-model the daemon additionally accepts streamed records
// on POST /ingest and refits that model in place (-refit-every, or on
// demand with ?refit=1), feeding the same swap path. The endpoint set,
// instrumentation, and shutdown semantics live in internal/daemon —
// this command is the flag surface around it.
//
// Usage:
//
//	pmafiad -models ./models [-addr :8080] [flags]
//
// Every request carries an X-Request-ID, lands in the per-route and
// per-model latency histograms exposed at /metrics, and emits one
// structured JSON access-log line (-access-log, default stderr). Its
// per-stage record is offered to a bounded ring (-trace-ring per
// class) that always keeps slow and non-2xx requests: the slowest are
// inspectable at /debug/slow, and every retained record is served as
// Chrome trace_event JSON at /debug/trace and linked from /metrics as
// OpenMetrics exemplars. -trace-sample additionally head-samples
// ordinary requests into the ring and propagates W3C traceparent
// headers. -pprof mounts net/http/pprof under /debug/pprof/;
// -profile-dir adds periodic CPU/heap pprof captures indexed at
// /debug/profiles. The daemon bounds concurrent
// assignment work (-max-inflight), times out slow requests (-timeout),
// caps request bodies (-max-body), and shuts down gracefully on
// SIGINT/SIGTERM: /readyz flips to 503, in-flight requests drain, and
// the access log is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pmafia/internal/daemon"
)

func main() {
	var cfg daemon.Config
	var accessLog string
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.ModelDir, "models", "", "directory holding .pmfm model files (required)")
	flag.IntVar(&cfg.CacheCap, "cache", 4, "max models resident at once (LRU eviction)")
	flag.DurationVar(&cfg.Timeout, "timeout", 30*time.Second, "per-request read/write timeout")
	flag.IntVar(&cfg.Inflight, "max-inflight", 8, "max concurrent /assign requests")
	flag.Int64Var(&cfg.MaxBody, "max-body", 1<<30, "request body cap in bytes")
	flag.DurationVar(&cfg.SwapCheck, "swap-check", time.Second, "min interval between on-disk freshness checks of a served model (negative disables hot swap)")
	flag.StringVar(&cfg.IngestModel, "ingest-model", "", "model file name (inside -models) maintained by POST /ingest (empty disables streaming ingest)")
	flag.IntVar(&cfg.IngestDims, "ingest-dims", 0, "dimensionality of the ingest stream (required with -ingest-model)")
	flag.IntVar(&cfg.RefitEvery, "refit-every", 0, "pending ingest records that trigger a background refit (0: explicit ?refit=1 only)")
	flag.StringVar(&accessLog, "access-log", "-", `access-log destination: "-" for stderr, "" to disable, or a file path (appended)`)
	flag.BoolVar(&cfg.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/")
	flag.Float64Var(&cfg.TraceSample, "trace-sample", 0, "head-sampling rate in (0,1] of ordinary requests into the trace ring, which also turns on W3C traceparent propagation; slow and non-2xx requests are always retained; 0 samples none")
	flag.IntVar(&cfg.TraceRing, "trace-ring", 64, "retained request records per class (sampled / error / slow) for /debug/trace; the slow class is /debug/slow")
	flag.StringVar(&cfg.ProfileDir, "profile-dir", "", "directory for continuous CPU/heap pprof captures (empty disables)")
	flag.DurationVar(&cfg.ProfileInterval, "profile-interval", time.Minute, "sleep between continuous-profiling capture cycles")
	flag.DurationVar(&cfg.ProfileCPU, "profile-cpu", 5*time.Second, "length of each continuous CPU capture")
	flag.IntVar(&cfg.ProfileKeep, "profile-keep", 16, "continuous-profiling captures kept on disk per kind")
	flag.Parse()
	if cfg.ModelDir == "" {
		fmt.Fprintln(os.Stderr, "usage: pmafiad -models <dir> [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var logFile io.Closer
	switch accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmafiad:", err)
			os.Exit(1)
		}
		cfg.AccessLog = f
		logFile = f
	}
	d, err := daemon.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmafiad:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "pmafiad: serving models from %s on http://%s\n", cfg.ModelDir, d.Addr())
	d.Serve()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "pmafiad: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = d.Shutdown(sctx)
	if logFile != nil {
		if cerr := logFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmafiad:", err)
		os.Exit(1)
	}
}
