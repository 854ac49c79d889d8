package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmafia/internal/obs"
)

// TestContinuousProfiling runs a daemon with an aggressive capture
// cadence and asserts the harness end to end: captures appear on
// disk, retention is pruned to ProfileKeep per kind, the
// /debug/profiles index and file endpoints serve them, and bad names
// are rejected.
func TestContinuousProfiling(t *testing.T) {
	dir := t.TempDir()
	prof := t.TempDir()
	d, base := startDaemon(t, Config{
		ModelDir:        dir,
		ProfileDir:      prof,
		ProfileInterval: 20 * time.Millisecond,
		ProfileCPU:      10 * time.Millisecond,
		ProfileKeep:     2,
	})
	defer d.Shutdown(context.Background())

	// Wait until the loop has completed enough cycles to force a prune
	// (keep+1 captures of each kind).
	deadline := time.Now().Add(15 * time.Second)
	for {
		met := d.rec.Metrics()
		if met.Counters[obs.CtrProfileCPU] >= 3 && met.Counters[obs.CtrProfileHeap] >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("profiler made no progress: counters %v", met.Counters)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var index []profileInfo
	_, raw := get(t, base+"/debug/profiles")
	if err := json.Unmarshal(raw, &index); err != nil {
		t.Fatalf("/debug/profiles is not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, info := range index {
		kinds[info.Kind]++
		if !profileName.MatchString(info.Name) {
			t.Errorf("index entry %q does not match the capture-name shape", info.Name)
		}
	}
	for _, kind := range []string{"cpu", "heap"} {
		if kinds[kind] == 0 || kinds[kind] > 2 {
			t.Errorf("index has %d %s captures, want 1..ProfileKeep=2", kinds[kind], kind)
		}
	}
	if met := d.rec.Metrics(); met.Counters[obs.CtrProfilePruned] == 0 {
		t.Error("three cycles with keep=2 never pruned")
	}

	// A heap capture round-trips through the file endpoint.
	var heapName string
	for _, info := range index {
		if info.Kind == "heap" {
			heapName = info.Name
			break
		}
	}
	resp, raw := get(t, base+"/debug/profiles/"+heapName)
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		t.Errorf("fetching %s: status %d, %d bytes", heapName, resp.StatusCode, len(raw))
	}

	if resp, _ := get(t, base+"/debug/profiles/evil.txt"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-capture name served %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, base+"/debug/profiles/cpu-00000000T000000.000-000000.pprof"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("well-formed but absent name served %d, want 404", resp.StatusCode)
	}
	for _, bad := range []string{"../secret.pprof", "cpu-x/../../etc-000001.pprof", "cpu-1-1.pprof.bak"} {
		if profileName.MatchString(bad) {
			t.Errorf("profileName accepted %q", bad)
		}
	}

	// Shutdown stops the capture loop promptly even mid-CPU-capture.
	start := time.Now()
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("shutdown blocked %.1fs on the profiler", waited.Seconds())
	}
}

// TestProfilesListOnlyCompleteCaptures: a capture still being written
// must not be published. With a long CPU capture in progress, the
// /debug/profiles index lists nothing; once Shutdown cuts the capture
// short it lands complete under its capture name, with no temporary
// file left behind.
func TestProfilesListOnlyCompleteCaptures(t *testing.T) {
	prof := t.TempDir()
	d, base := startDaemon(t, Config{
		ModelDir:        t.TempDir(),
		ProfileDir:      prof,
		ProfileInterval: 10 * time.Millisecond,
		ProfileCPU:      10 * time.Second,
	})
	defer d.Shutdown(context.Background())

	// Wait until the first CPU capture has started writing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no capture started")
		}
		time.Sleep(time.Millisecond)
	}
	var index []profileInfo
	_, raw := get(t, base+"/debug/profiles")
	if err := json.Unmarshal(raw, &index); err != nil {
		t.Fatalf("/debug/profiles is not valid JSON: %v", err)
	}
	if n := d.rec.Counter(obs.CtrProfileCPU); n != 0 {
		t.Fatalf("%d CPU captures finished before the index was read; the test needs one in progress", n)
	}
	if len(index) != 0 {
		t.Errorf("index lists %+v while the only capture is still being written", index)
	}

	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	cpu := d.prof.captures("cpu")
	if len(cpu) != 1 || d.rec.Counter(obs.CtrProfileCPU) != 1 {
		t.Fatalf("after shutdown: cpu captures %v, counter %d; want one", cpu, d.rec.Counter(obs.CtrProfileCPU))
	}
	if fi, err := os.Stat(filepath.Join(prof, cpu[0])); err != nil || fi.Size() == 0 {
		t.Errorf("published CPU capture %s is empty or missing (err %v)", cpu[0], err)
	}
	ents, err := os.ReadDir(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !profileName.MatchString(e.Name()) {
			t.Errorf("%s left in the profile directory", e.Name())
		}
	}
}

// TestDebugProfilesDisabled: without -profile-dir the endpoint
// explains itself with a 404 rather than an empty index.
func TestDebugProfilesDisabled(t *testing.T) {
	d, base := startDaemon(t, Config{ModelDir: t.TempDir()})
	defer d.Shutdown(context.Background())
	resp, raw := get(t, base+"/debug/profiles")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	if want := "profiling disabled"; !strings.Contains(string(raw), want) {
		t.Errorf("body %q does not mention %q", raw, want)
	}
}
