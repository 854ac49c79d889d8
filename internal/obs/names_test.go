package obs

import "testing"

func TestCounterRegistry(t *testing.T) {
	for _, name := range []string{
		CtrDiskChunks, CtrDiskBytes, CtrDiskRetries, CtrDiskCorruptions,
		CtrPoolMergeNS,
		CtrHistogramRecords, CtrCDUsGenerated, CtrCDUsDeduped,
		CtrCDUsPopulated, CtrDenseUnits, CtrPopulateRecords,
		CtrAssignFrames,
		CtrTraceRetained, CtrTraceRetainedSlow,
		CtrProfileCPU, CtrProfileHeap, CtrProfilePruned, CtrProfileErrors,
		CtrIngestRecords, CtrIngestChunks, CtrIngestRefits, CtrIngestRefitErrors,
		CtrSwapChecks, CtrSwapSwaps, CtrSwapErrors,
	} {
		if !IsRegistered(name) {
			t.Errorf("constant %q not registered", name)
		}
	}
	for _, kind := range []string{KindReduce, KindBcast, KindGather, KindBarrier} {
		if !IsRegistered(CommCountCounter(kind)) || !IsRegistered(CommBytesCounter(kind)) {
			t.Errorf("comm counters for %q not registered", kind)
		}
	}
	for _, k := range []int{1, 7, 42} {
		if !IsRegistered(LevelDenseCounter(k)) {
			t.Errorf("%q not registered", LevelDenseCounter(k))
		}
	}
	if got := LevelDenseCounter(7); got != "level.07.dense" {
		t.Errorf("LevelDenseCounter(7) = %q", got)
	}
	for _, route := range []string{"assign", "models", "healthz", "readyz", "metrics", "debug_slow"} {
		for _, code := range []int{200, 404, 503} {
			if !IsRegistered(CtrHTTPStatus(route, code)) {
				t.Errorf("%q not registered", CtrHTTPStatus(route, code))
			}
		}
	}
	for _, bogus := range []string{"", "bogus", "comm.reduce", "level.7.dense", "diskio.chunks2",
		"http.assign.status.20", "http..status.200"} {
		if IsRegistered(bogus) {
			t.Errorf("%q should not be registered", bogus)
		}
	}
	if len(Registered()) == 0 {
		t.Error("Registered() is empty")
	}
}

func TestHistogramRegistry(t *testing.T) {
	for _, name := range []string{
		HistAssignQueueSeconds,
		HistIngestRefitSeconds, HistSwapSeconds,
		HistRouteSeconds("assign"), HistRouteSeconds("debug_slow"),
		HistModelSeconds("taxi.pmfm"), HistModelRecords("taxi.pmfm"),
	} {
		if !IsRegisteredHistogram(name) {
			t.Errorf("%q not registered as a histogram", name)
		}
	}
	for _, bogus := range []string{"", "assign.seconds2", "http.assign.bytes",
		"model.x.count", CtrAssignRecords} {
		if IsRegisteredHistogram(bogus) {
			t.Errorf("%q should not be a registered histogram", bogus)
		}
	}
	// Histogram and counter name spaces stay disjoint.
	if IsRegistered(HistRouteSeconds("assign")) {
		t.Error("a histogram name is registered as a counter")
	}
}

func TestGaugeRegistry(t *testing.T) {
	for _, name := range []string{
		GaugeIngestPending,
		GaugeModelStaleness("taxi.pmfm"),
		GaugeModelStaleness("a.b.pmfm"),
	} {
		if !IsRegisteredGauge(name) {
			t.Errorf("%q not registered as a gauge", name)
		}
	}
	for _, bogus := range []string{"", "model..staleness.seconds", "model.x.seconds",
		CtrIngestRecords, HistSwapSeconds} {
		if IsRegisteredGauge(bogus) {
			t.Errorf("%q should not be a registered gauge", bogus)
		}
	}
	// Gauge, counter, and histogram name spaces stay disjoint.
	if IsRegistered(GaugeIngestPending) || IsRegisteredHistogram(GaugeIngestPending) {
		t.Error("a gauge name is registered as a counter or histogram")
	}
	if model, ok := ParseModelStalenessGauge(GaugeModelStaleness("a.b.pmfm")); !ok || model != "a.b.pmfm" {
		t.Errorf("ParseModelStalenessGauge = %q %v", model, ok)
	}
	if _, ok := ParseModelStalenessGauge(HistModelSeconds("a.pmfm")); ok {
		t.Error("ParseModelStalenessGauge accepted a model histogram")
	}
}

func TestMetricNameParsers(t *testing.T) {
	if route, code, ok := ParseHTTPStatusCounter(CtrHTTPStatus("assign", 503)); !ok || route != "assign" || code != "503" {
		t.Errorf("ParseHTTPStatusCounter = %q %q %v", route, code, ok)
	}
	if _, _, ok := ParseHTTPStatusCounter(CtrAssignRecords); ok {
		t.Error("ParseHTTPStatusCounter accepted a plain counter")
	}
	if route, ok := ParseRouteSecondsHistogram(HistRouteSeconds("debug_slow")); !ok || route != "debug_slow" {
		t.Errorf("ParseRouteSecondsHistogram = %q %v", route, ok)
	}
	if _, ok := ParseRouteSecondsHistogram(HistModelSeconds("a.pmfm")); ok {
		t.Error("ParseRouteSecondsHistogram accepted a model histogram")
	}
	if model, kind, ok := ParseModelHistogram(HistModelSeconds("a.b.pmfm")); !ok || model != "a.b.pmfm" || kind != "seconds" {
		t.Errorf("ParseModelHistogram(seconds) = %q %q %v", model, kind, ok)
	}
	if model, kind, ok := ParseModelHistogram(HistModelRecords("a.pmfm")); !ok || model != "a.pmfm" || kind != "records" {
		t.Errorf("ParseModelHistogram(records) = %q %q %v", model, kind, ok)
	}
	if _, _, ok := ParseModelHistogram(HistRouteSeconds("assign")); ok {
		t.Error("ParseModelHistogram accepted a route histogram")
	}
}

func TestHistogramBoundsByFamily(t *testing.T) {
	for _, name := range []string{HistRouteSeconds("assign"), HistModelSeconds("a.pmfm"), HistAssignQueueSeconds} {
		if got := HistogramBounds(name); &got[0] != &DefaultLatencyBounds[0] {
			t.Errorf("%q did not get the latency bounds", name)
		}
	}
	for _, name := range []string{HistModelRecords("a.pmfm")} {
		if got := HistogramBounds(name); &got[0] != &DefaultSizeBounds[0] {
			t.Errorf("%q did not get the size bounds", name)
		}
	}
}

// TestPromNameMapping locks the single name-mangling rule of the
// Prometheus exposition for every exact registered counter name, plus
// one instance of each patterned counter and histogram family. A
// change here is a dashboard-breaking change — update deliberately.
func TestPromNameMapping(t *testing.T) {
	want := map[string]string{
		CtrDiskChunks:        "pmafia_diskio_chunks",
		CtrDiskBytes:         "pmafia_diskio_bytes",
		CtrDiskRetries:       "pmafia_diskio_retries",
		CtrDiskCorruptions:   "pmafia_diskio_corruptions",
		CtrPoolMergeNS:       "pmafia_pool_merge_ns",
		CtrHistogramRecords:  "pmafia_histogram_records",
		CtrCDUsGenerated:     "pmafia_cdus_generated",
		CtrCDUsDeduped:       "pmafia_cdus_deduped",
		CtrCDUsPopulated:     "pmafia_cdus_populated",
		CtrDenseUnits:        "pmafia_dense_units",
		CtrPopulateRecords:   "pmafia_populate_records",
		CtrAssignRecords:     "pmafia_assign_records",
		CtrAssignBatches:     "pmafia_assign_batches",
		CtrAssignCacheHit:    "pmafia_assign_cache_hit",
		CtrAssignCacheMiss:   "pmafia_assign_cache_miss",
		CtrAssignFrames:      "pmafia_assign_frames",
		CtrTraceRetained:     "pmafia_trace_retained",
		CtrTraceRetainedSlow: "pmafia_trace_retained_slow",
		CtrProfileCPU:        "pmafia_profile_cpu",
		CtrProfileHeap:       "pmafia_profile_heap",
		CtrProfilePruned:     "pmafia_profile_pruned",
		CtrProfileErrors:     "pmafia_profile_errors",
		CtrIngestRecords:     "pmafia_ingest_records",
		CtrIngestChunks:      "pmafia_ingest_chunks",
		CtrIngestRefits:      "pmafia_ingest_refits",
		CtrIngestRefitErrors: "pmafia_ingest_refit_errors",
		CtrSwapChecks:        "pmafia_swap_checks",
		CtrSwapSwaps:         "pmafia_swap_swaps",
		CtrSwapErrors:        "pmafia_swap_errors",
		CtrCkptWrites:        "pmafia_ckpt_write",
		CtrCkptWriteBytes:    "pmafia_ckpt_write_bytes",
		CtrCkptWriteNS:       "pmafia_ckpt_write_ns",
		CtrCkptRestores:      "pmafia_ckpt_restore",
		CtrCkptRestoreNS:     "pmafia_ckpt_restore_ns",
		CtrCkptCorrupt:       "pmafia_ckpt_corrupt",
		CtrCkptStale:         "pmafia_ckpt_stale",
		CtrCkptResumeLevel:   "pmafia_ckpt_resume_level",
		CtrSupervisorResume:  "pmafia_supervisor_resumes",
		CtrSupervisorRetry:   "pmafia_supervisor_restarts",
		// Patterned families, one instance each.
		CommCountCounter(KindReduce):     "pmafia_comm_reduce_count",
		CommBytesCounter(KindGather):     "pmafia_comm_gather_bytes",
		LevelDenseCounter(7):             "pmafia_level_07_dense",
		CtrHTTPStatus("assign", 200):     "pmafia_http_assign_status_200",
		HistAssignQueueSeconds:           "pmafia_assign_queue_seconds",
		HistRouteSeconds("assign"):       "pmafia_http_assign_seconds",
		HistModelSeconds("taxi.pmfm"):    "pmafia_model_taxi_pmfm_seconds",
		HistModelRecords("taxi.pmfm"):    "pmafia_model_taxi_pmfm_records",
		HistIngestRefitSeconds:           "pmafia_ingest_refit_seconds",
		HistSwapSeconds:                  "pmafia_swap_seconds",
		GaugeIngestPending:               "pmafia_ingest_pending_records",
		GaugeModelStaleness("taxi.pmfm"): "pmafia_model_taxi_pmfm_staleness_seconds",
	}
	// Every exact registered name must be locked above.
	for _, name := range Registered() {
		if _, ok := want[name]; !ok {
			t.Errorf("registered counter %q has no locked Prometheus mapping — add it", name)
		}
	}
	for name, pn := range want {
		if got := PromName(name); got != pn {
			t.Errorf("PromName(%q) = %q, want %q", name, got, pn)
		}
	}
}
