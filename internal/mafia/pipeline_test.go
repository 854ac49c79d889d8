package mafia

import (
	"path/filepath"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/obs"
	"pmafia/internal/sp2"
)

// rangeShard adapts a contiguous record range of a file to Source.
type rangeShard struct {
	f      *diskio.File
	lo, hi int
}

func (s *rangeShard) Dims() int       { return s.f.Dims() }
func (s *rangeShard) NumRecords() int { return s.hi - s.lo }
func (s *rangeShard) Scan(chunk int) dataset.Scanner {
	return s.f.ScanRange(s.lo, s.hi, chunk)
}

// TestPipelinedRunSimAccounting runs the full engine out of core on the
// simulated machine with the worker pool on, and checks it against the
// single-worker run: the clustering output is identical, the scan and
// population counters are emitted, and the modeled parallel time is
// positive. Reads run on the rank's own goroutine, so their time lands
// on its Sim clock like any other compute.
func TestPipelinedRunSimAccounting(t *testing.T) {
	m, _ := genData(t, 5, 4000, 33, box(15, 45, 0, 2))
	path := filepath.Join(t.TempDir(), "pipe.pmaf")
	if err := diskio.WriteSource(path, m); err != nil {
		t.Fatal(err)
	}

	run := func(workers, p int, rec *obs.Recorder) *Result {
		t.Helper()
		f, err := diskio.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f.SetRecorder(rec)
		shards := make([]dataset.Source, p)
		for r := 0; r < p; r++ {
			lo, hi := diskio.ShareBounds(f.NumRecords(), r, p)
			shards[r] = &rangeShard{f: f, lo: lo, hi: hi}
		}
		res, err := RunParallel(shards, nil, Config{
			ChunkRecords: 256, Workers: workers, Recorder: rec,
		}, sp2.Config{Procs: p, Mode: sp2.Sim, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	serial := run(0, 2, nil)

	rec := obs.New()
	piped := run(2, 2, rec)

	if len(piped.Clusters) != len(serial.Clusters) {
		t.Fatalf("pipelined run found %d clusters, serial %d", len(piped.Clusters), len(serial.Clusters))
	}
	for i := range piped.Levels {
		ps, ss := piped.Levels[i], serial.Levels[i]
		if ps.K != ss.K || ps.Ncdu != ss.Ncdu || ps.Ndu != ss.Ndu {
			t.Errorf("level %d diverged: %+v vs %+v", i, ps, ss)
		}
	}

	if rec.Counter("diskio.chunks") == 0 {
		t.Fatal("no chunks read")
	}
	if rec.Counter("populate.records") == 0 {
		t.Error("populate.records counter not emitted")
	}

	// The modeled parallel time must stay positive and finite.
	if !(piped.Seconds > 0) {
		t.Errorf("pipelined Sim run reported %v seconds", piped.Seconds)
	}
}
