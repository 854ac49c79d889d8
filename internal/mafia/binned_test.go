package mafia

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/faults"
	"pmafia/internal/obs"
	"pmafia/internal/rng"
	"pmafia/internal/sp2"
	"pmafia/internal/unit"
)

// TestBinnedCopyCorruptFallsBack damages a written binned copy — one
// flipped byte, then a file that can no longer be read — and checks
// that the level still counts exactly the oracle's populations from the
// shard, that diskio.corruptions counts each failure, and that the copy
// is dropped so later levels scan the shard too.
func TestBinnedCopyCorruptFallsBack(t *testing.T) {
	r := rng.New(23)
	g, m := testGrid(t, r.Split(), 700, 5, 6)
	cdus := randCDUs(r.Split(), g, 3, 60)
	sub := subsetsOf(r.Split(), cdus)[1]
	want := oracleCounts(g, sub, m)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, bc *binnedCopy)
	}{
		{"flipped byte", func(t *testing.T, bc *binnedCopy) {
			off := int64(len(bc.buf)) + 5 // inside the second frame
			b := []byte{0}
			if _, err := bc.f.ReadAt(b, off); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x10
			if _, err := bc.f.WriteAt(b, off); err != nil {
				t.Fatal(err)
			}
		}},
		{"read error", func(t *testing.T, bc *binnedCopy) {
			bc.f.Close()
		}},
	} {
		for _, workers := range []int{1, 3} {
			rec := obs.New()
			p := &populator{shard: m, chunk: 200, workers: workers, rec: rec}
			if _, err := p.count(newCounter(g, cdus, CountDirect)); err != nil {
				t.Fatal(err)
			}
			if p.copy == nil || len(p.copy.frames) < 2 {
				t.Fatalf("%s: want a binned copy of several frames", tc.name)
			}
			tc.damage(t, p.copy)
			c := newCounter(g, sub, CountDirect)
			if _, err := p.count(c); err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if !slices.Equal(c.counts, want) || c.records != int64(m.NumRecords()) {
				t.Fatalf("%s workers=%d: counts %v over %d records after fallback, oracle %v", tc.name, workers, c.counts, c.records, want)
			}
			if got := rec.Counter(obs.CtrDiskCorruptions); got != 1 {
				t.Errorf("%s workers=%d: diskio.corruptions = %d, want 1", tc.name, workers, got)
			}
			if p.copy != nil {
				t.Errorf("%s workers=%d: damaged copy kept", tc.name, workers)
			}
			again := newCounter(g, sub, CountDirect)
			if _, err := p.count(again); err != nil || !slices.Equal(again.counts, want) {
				t.Errorf("%s workers=%d: level after the drop: %v, %v", tc.name, workers, again.counts, err)
			}
			if p.copy != nil {
				t.Errorf("%s workers=%d: a second copy was written", tc.name, workers)
			}
		}
	}
}

// TestBinnedCopyUncreatableKeepsRawPasses: when no scratch file can be
// made under TMPDIR, every direct level scans the shard and counts
// exactly the oracle's populations.
func TestBinnedCopyUncreatableKeepsRawPasses(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", notDir)
	r := rng.New(31)
	g, m := testGrid(t, r.Split(), 400, 5, 6)
	cdus := randCDUs(r.Split(), g, 3, 40)
	p := &populator{shard: m, chunk: 100, workers: 3}
	for _, set := range append([]*unit.Array{cdus}, subsetsOf(r.Split(), cdus)...) {
		c := newCounter(g, set, CountDirect)
		if _, err := p.count(c); err != nil {
			t.Fatal(err)
		}
		if want := oracleCounts(g, set, m); !slices.Equal(c.counts, want) {
			t.Fatalf("k=%d: counts %v, oracle %v", set.K, c.counts, want)
		}
		if p.copy != nil {
			t.Fatal("a binned copy exists although TMPDIR is not a directory")
		}
	}
}

// TestBinnedCopyMissingAtomErrors: a direct pass whose CDUs use an
// atom the copy does not hold cannot come from the level loop (atoms
// only shrink), so it is an error, not a silent fallback.
func TestBinnedCopyMissingAtomErrors(t *testing.T) {
	r := rng.New(29)
	g, m := testGrid(t, r.Split(), 300, 4, 5)
	p := &populator{shard: m, chunk: 64}
	defer p.drop()
	first := randCDUsIn(r.Split(), g, []int{0, 1}, 2, 5)
	if _, err := p.count(newCounter(g, first, CountDirect)); err != nil {
		t.Fatal(err)
	}
	other := randCDUsIn(r.Split(), g, []int{2, 3}, 2, 5)
	if _, err := p.count(newCounter(g, other, CountDirect)); err == nil || errors.Is(err, errCopyUnreadable) {
		t.Fatalf("counting atoms missing from the copy: err = %v", err)
	}
}

// openFiles returns the number of this process's open descriptors, or
// -1 where the system does not list them.
func openFiles() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// TestBinnedCopyLeavesNoFiles points TMPDIR at an empty directory and
// checks that it is empty, and that no descriptor stays open, after a
// fit and after a fit whose rank crashes while it holds its copy.
func TestBinnedCopyLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	m, _ := genData(t, 6, 3000, 87, box(10, 25, 0, 2, 4))
	shards := []dataset.Source{m.Slice(0, 1000), m.Slice(1000, 2000), m.Slice(2000, 3000)}
	cfg := Config{ChunkRecords: 64}
	empty := func(when string, fds int) {
		t.Helper()
		if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
			t.Errorf("%s: TMPDIR holds %v (%v)", when, left, err)
		}
		if now := openFiles(); now != fds {
			t.Errorf("%s: %d open descriptors, %d before", when, now, fds)
		}
	}

	if _, err := Run(m, cfg); err != nil { // warm up the runtime's own descriptors
		t.Fatal(err)
	}
	fds := openFiles()
	res, err := RunParallel(shards, nil, cfg, sp2.Config{Procs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) < 3 || res.Levels[2].Ncdu == 0 {
		t.Fatalf("levels %+v: the fit never counted from its copy", res.Levels)
	}
	empty("after a fit", fds)

	// Collective 4 is the level-3 population reduction: every rank has
	// written its copy at level 2 and counted level 3 from it.
	rec := obs.New()
	cfg.Recorder = rec
	plan := faults.New(0, faults.Fault{Kind: faults.RankCrash, Rank: 1, Index: 4})
	_, err = runParallelWithDeadline(t, shards, nil, cfg, sp2.Config{Procs: 3, Faults: plan})
	var re *sp2.RankError
	if !errors.As(err, &re) || re.Rank != 1 || re.Collective != 4 || re.Phase != "populate" {
		t.Fatalf("err = %v, want rank 1 crashing in the level-3 populate reduction", err)
	}
	empty("after a crashed fit", fds)
}
