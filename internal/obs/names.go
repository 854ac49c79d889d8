package obs

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Counter names. Every counter the engine, the disk layer, the worker
// pool, or the machine emits is declared here — one registry instead of
// string literals scattered across packages, so exporters, the
// telemetry server, and tests agree on the exact spelling. Counters
// built from a pattern (per-collective-kind, per-level) have helper
// constructors below; IsRegistered recognizes both forms.
const (
	// diskio: serial chunk scans and the hardened read path.
	CtrDiskChunks      = "diskio.chunks"
	CtrDiskBytes       = "diskio.bytes"
	CtrDiskRetries     = "diskio.retries"
	CtrDiskCorruptions = "diskio.corruptions"
	// pool: intra-rank worker pool.
	CtrPoolMergeNS = "pool.merge.ns"
	// mafia/clique engine phases.
	CtrHistogramRecords = "histogram.records"
	CtrCDUsGenerated    = "cdus.generated"
	CtrCDUsDeduped      = "cdus.deduped"
	CtrCDUsPopulated    = "cdus.populated"
	CtrDenseUnits       = "dense.units"
	CtrPopulateRecords  = "populate.records"
	// pmafiad: the model-serving daemon's assignment path.
	CtrAssignRecords   = "assign.records"
	CtrAssignBatches   = "assign.batches"
	CtrAssignCacheHit  = "assign.cache.hit"
	CtrAssignCacheMiss = "assign.cache.miss"
	// pmafiad: the framed binary protocol.
	CtrAssignFrames = "assign.frames"
	// pmafiad: request records kept by the trace ring (all classes,
	// and the slow class).
	CtrTraceRetained     = "trace.retained"
	CtrTraceRetainedSlow = "trace.retained.slow"
	// pmafiad: the continuous-profiling harness.
	CtrProfileCPU    = "profile.cpu"
	CtrProfileHeap   = "profile.heap"
	CtrProfilePruned = "profile.pruned"
	CtrProfileErrors = "profile.errors"
	// ingest: the streaming-ingest / background-refit pipeline.
	CtrIngestRecords     = "ingest.records"
	CtrIngestChunks      = "ingest.chunks"
	CtrIngestRefits      = "ingest.refits"
	CtrIngestRefitErrors = "ingest.refit.errors"
	// pmafiad: live model hot-swap (generation-aware cache handles).
	CtrSwapChecks = "swap.checks"
	CtrSwapSwaps  = "swap.swaps"
	CtrSwapErrors = "swap.errors"
	// ckpt: level-barrier checkpoint writes and recovery loads.
	CtrCkptWrites       = "ckpt.write"
	CtrCkptWriteBytes   = "ckpt.write.bytes"
	CtrCkptWriteNS      = "ckpt.write.ns"
	CtrCkptRestores     = "ckpt.restore"
	CtrCkptRestoreNS    = "ckpt.restore.ns"
	CtrCkptCorrupt      = "ckpt.corrupt"
	CtrCkptStale        = "ckpt.stale"
	CtrCkptResumeLevel  = "ckpt.resume.level"
	CtrSupervisorResume = "supervisor.resumes"
	CtrSupervisorRetry  = "supervisor.restarts"
)

// CtrHTTPStatus names the per-(route, status-code) request counter the
// serving daemon bumps once per handled request. route is a fixed
// lowercase route token (e.g. "assign", "models", "debug_slow"), never
// a raw URL path, so the counter space stays enumerable.
func CtrHTTPStatus(route string, code int) string {
	return "http." + route + ".status." + strconv.Itoa(code)
}

// ParseHTTPStatusCounter splits a CtrHTTPStatus name back into its
// route and status code; ok is false for any other counter name. The
// telemetry exposition uses it to group these counters into one
// labeled Prometheus family instead of one metric per (route, code).
func ParseHTTPStatusCounter(name string) (route, code string, ok bool) {
	rest, found := strings.CutPrefix(name, "http.")
	if !found {
		return "", "", false
	}
	route, code, found = strings.Cut(rest, ".status.")
	if !found || route == "" || len(code) != 3 {
		return "", "", false
	}
	return route, code, true
}

// Histogram name families. Like counters, every histogram the serving
// daemon observes is declared here; HistogramBounds fixes the bucket
// boundary set per family so same-named histograms always merge.
const (
	// HistAssignQueueSeconds is the time /assign requests spent queued
	// for an in-flight slot before being admitted (shed requests are
	// not observed — they never ran).
	HistAssignQueueSeconds = "assign.queue.seconds"
	// HistIngestRefitSeconds is the wall time of each background refit
	// triggered by the streaming ingester (fit + atomic model write).
	HistIngestRefitSeconds = "ingest.refit.seconds"
	// HistSwapSeconds is the wall time of each successful model hot
	// swap in the serving daemon: disk load + index compile + pointer
	// store. Failed swaps are counted (swap.errors), not observed here.
	HistSwapSeconds = "swap.seconds"
)

// HistRouteSeconds names the per-route request-latency histogram
// (whole-request wall time, including queue wait and response write).
func HistRouteSeconds(route string) string { return "http." + route + ".seconds" }

// HistModelSeconds names the per-model /assign latency histogram.
// model is the model file's base name (e.g. "taxi.pmfm").
func HistModelSeconds(model string) string { return "model." + model + ".seconds" }

// HistModelRecords names the per-model batch-size histogram: records
// labeled per /assign request against the model.
func HistModelRecords(model string) string { return "model." + model + ".records" }

// ParseRouteSecondsHistogram splits a HistRouteSeconds name back into
// its route; ok is false for any other histogram name.
func ParseRouteSecondsHistogram(name string) (route string, ok bool) {
	rest, found := strings.CutPrefix(name, "http.")
	if !found {
		return "", false
	}
	route, found = strings.CutSuffix(rest, ".seconds")
	if !found || route == "" || strings.Contains(route, ".") {
		return "", false
	}
	return route, true
}

// ParseModelHistogram splits a HistModelSeconds / HistModelRecords
// name into the model name and the kind ("seconds" or "records"); ok
// is false for any other histogram name.
func ParseModelHistogram(name string) (model, kind string, ok bool) {
	rest, found := strings.CutPrefix(name, "model.")
	if !found {
		return "", "", false
	}
	dot := strings.LastIndexByte(rest, '.')
	if dot <= 0 {
		return "", "", false
	}
	model, kind = rest[:dot], rest[dot+1:]
	if kind != "seconds" && kind != "records" {
		return "", "", false
	}
	return model, kind, true
}

// Gauge names. Gauges are last-value-wins point-in-time readings —
// unlike counters they can move down — and, like the other metric
// kinds, every gauge set anywhere is declared here.
const (
	// GaugeIngestPending is the number of records buffered in the
	// streaming ingester since the last completed refit.
	GaugeIngestPending = "ingest.pending.records"
)

// GaugeModelStaleness names the per-model staleness gauge: seconds
// between the on-disk model file's mtime and the generation currently
// being served. Zero means the resident compiled index is the newest
// on disk; it climbs while a newer file waits to be swapped in (or a
// swap keeps failing). model is the model file's base name.
func GaugeModelStaleness(model string) string {
	return "model." + model + ".staleness.seconds"
}

// ParseModelStalenessGauge splits a GaugeModelStaleness name back into
// its model name; ok is false for any other gauge name.
func ParseModelStalenessGauge(name string) (model string, ok bool) {
	rest, found := strings.CutPrefix(name, "model.")
	if !found {
		return "", false
	}
	model, found = strings.CutSuffix(rest, ".staleness.seconds")
	if !found || model == "" {
		return "", false
	}
	return model, true
}

// registeredGauges is the exact-name half of the gauge registry.
var registeredGauges = map[string]bool{
	GaugeIngestPending: true,
}

// gaugePatterned matches the constructed gauge families — currently
// just model.<file>.staleness.seconds.
var gaugePatterned = regexp.MustCompile(`^model\..+\.staleness\.seconds$`)

// IsRegisteredGauge reports whether name is a declared gauge, exact or
// an instance of a registered family — the gauge half of IsRegistered.
func IsRegisteredGauge(name string) bool {
	return registeredGauges[name] || gaugePatterned.MatchString(name)
}

// HistogramBounds returns the declared bucket boundary set for a
// histogram name family: ".records" families use the size decades,
// everything else the latency ladder. One boundary set per family is
// what guarantees same-named per-rank histograms merge.
func HistogramBounds(name string) []float64 {
	if strings.HasSuffix(name, ".records") {
		return DefaultSizeBounds
	}
	return DefaultLatencyBounds
}

// CommCountCounter names the per-kind collective-operation counter the
// recorder bumps in Comm (kind is one of sp2's collective kinds).
func CommCountCounter(kind string) string { return "comm." + kind + ".count" }

// CommBytesCounter names the per-kind collective payload-bytes counter.
func CommBytesCounter(kind string) string { return "comm." + kind + ".bytes" }

// LevelDenseCounter names the per-level dense-unit counter for
// bottom-up level k.
func LevelDenseCounter(k int) string {
	// Two digits keep lexicographic and numeric order aligned for the
	// levels a run can realistically reach.
	d1, d0 := byte('0'+k/10%10), byte('0'+k%10)
	return "level." + string([]byte{d1, d0}) + ".dense"
}

// registered is the exact-name half of the registry.
var registered = map[string]bool{
	CtrDiskChunks:        true,
	CtrDiskBytes:         true,
	CtrDiskRetries:       true,
	CtrDiskCorruptions:   true,
	CtrPoolMergeNS:       true,
	CtrHistogramRecords:  true,
	CtrCDUsGenerated:     true,
	CtrCDUsDeduped:       true,
	CtrCDUsPopulated:     true,
	CtrDenseUnits:        true,
	CtrPopulateRecords:   true,
	CtrAssignRecords:     true,
	CtrAssignBatches:     true,
	CtrAssignCacheHit:    true,
	CtrAssignCacheMiss:   true,
	CtrAssignFrames:      true,
	CtrTraceRetained:     true,
	CtrTraceRetainedSlow: true,
	CtrProfileCPU:        true,
	CtrProfileHeap:       true,
	CtrProfilePruned:     true,
	CtrProfileErrors:     true,
	CtrIngestRecords:     true,
	CtrIngestChunks:      true,
	CtrIngestRefits:      true,
	CtrIngestRefitErrors: true,
	CtrSwapChecks:        true,
	CtrSwapSwaps:         true,
	CtrSwapErrors:        true,
	CtrCkptWrites:        true,
	CtrCkptWriteBytes:    true,
	CtrCkptWriteNS:       true,
	CtrCkptRestores:      true,
	CtrCkptRestoreNS:     true,
	CtrCkptCorrupt:       true,
	CtrCkptStale:         true,
	CtrCkptResumeLevel:   true,
	CtrSupervisorResume:  true,
	CtrSupervisorRetry:   true,
}

// patterned matches the constructed counter families:
// comm.<kind>.count/bytes, level.NN.dense, and the serving daemon's
// http.<route>.status.<code> request counters.
var patterned = regexp.MustCompile(`^(comm\.[a-z]+\.(count|bytes)|level\.[0-9]{2}\.dense|http\.[a-z_]+\.status\.[0-9]{3})$`)

// histPatterned matches the constructed histogram families:
// http.<route>.seconds and model.<file>.seconds/.records (model file
// names contain dots, so the model segment is matched loosely — the
// family is still closed because only resolved model base names reach
// the recorder).
var histPatterned = regexp.MustCompile(`^(http\.[a-z_]+\.seconds|model\..+\.(seconds|records))$`)

// registeredHists is the exact-name half of the histogram registry.
var registeredHists = map[string]bool{
	HistAssignQueueSeconds: true,
	HistIngestRefitSeconds: true,
	HistSwapSeconds:        true,
}

// IsRegisteredHistogram reports whether name is a declared histogram,
// either an exact registry entry or an instance of a registered
// family — the histogram half of IsRegistered, with the same purpose:
// an Observe under an undeclared name fails the registry tests
// instead of silently forking the metric space.
func IsRegisteredHistogram(name string) bool {
	return registeredHists[name] || histPatterned.MatchString(name)
}

// PromName mangles an obs counter or histogram name into the
// Prometheus metric name it is exposed under:
// "diskio.chunks" -> "pmafia_diskio_chunks". This is
// the single name-mangling rule of the exposition — both the counter
// and the histogram exporters in obs/serve call it, and a test locks
// the mapping for every registered name.
func PromName(name string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "pmafia_" + mangled
}

// IsRegistered reports whether name is a declared counter, either an
// exact registry entry or an instance of a registered pattern. Tests
// use it to catch counter-name drift: a counter emitted under a
// misspelled or undeclared name fails the registry test instead of
// silently forking the metric space.
func IsRegistered(name string) bool {
	return registered[name] || patterned.MatchString(name)
}

// Registered returns the exact-name registry entries, sorted. Pattern
// families (comm.*, level.*) are not enumerated.
func Registered() []string {
	out := make([]string, 0, len(registered))
	for name := range registered {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sampled marks the counters whose increments are also recorded as
// time-stamped samples for the Chrome trace export ("C" counter
// events), so scan progress and pool merge cost are visible in the
// trace viewer over time rather than only as end-of-run totals. Keep
// this set small: every increment of a sampled counter appends one
// sample.
var sampled = map[string]bool{
	CtrPoolMergeNS: true,
	CtrDiskChunks:  true,
}
