package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// buildDaemon builds cmd/pmafiad from the enclosing checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pmafiad")
	out, err := exec.Command("go", "build", "-o", bin, "pmafia/cmd/pmafiad").CombinedOutput()
	if err != nil {
		t.Fatalf("building pmafiad: %v\n%s", err, out)
	}
	return bin
}

// TestEveryWorkloadEmitsEveryMetric runs a shortened pass over every
// workload, untraced and traced, and checks that every output passed
// its gates and every named metric is emitted with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	daemon := buildDaemon(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			o := &options{workload: wl.name, seed: 7, seconds: 1, trace: traced,
				daemon: daemon, workdir: t.TempDir(), short: true}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayerAll()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, m.name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedLabelFails shows the label gate can fail: with one
// expected label corrupted, a serve run reports failed operations.
func TestCorruptedLabelFails(t *testing.T) {
	daemon := buildDaemon(t)
	for _, name := range []string{"serve_small", "serve_ingest"} {
		o := &options{workload: name, seed: 3, seconds: 0.5, daemon: daemon,
			workdir: t.TempDir(), short: true, corruptLabel: true}
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted expected label: correct=%v failed=%d, want a failure", name, res.Correct, res.Failed)
		}
	}
}
