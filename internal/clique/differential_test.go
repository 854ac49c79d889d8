package clique

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"pmafia/internal/datagen"
	"pmafia/internal/dataset"
	"pmafia/internal/diskio"
	"pmafia/internal/mafia"
	"pmafia/internal/sp2"
)

// fileShard adapts a contiguous record range of a .pmaf file to
// dataset.Source, the shape ranks use for a shared on-disk data set.
type fileShard struct {
	f      *diskio.File
	lo, hi int
}

func (s *fileShard) Dims() int       { return s.f.Dims() }
func (s *fileShard) NumRecords() int { return s.hi - s.lo }
func (s *fileShard) Scan(chunk int) dataset.Scanner {
	return s.f.ScanRange(s.lo, s.hi, chunk)
}

func fileShards(f *diskio.File, p int) []dataset.Source {
	out := make([]dataset.Source, p)
	for r := 0; r < p; r++ {
		lo, hi := diskio.ShareBounds(f.NumRecords(), r, p)
		out[r] = &fileShard{f: f, lo: lo, hi: hi}
	}
	return out
}

// clusterSignature renders a result's clusters as a sorted set of
// subspace+DNF strings — the full semantic content of the output, in a
// form that is order-insensitive and comparable across engines.
func clusterSignature(res *mafia.Result) []string {
	sig := make([]string, 0, len(res.Clusters))
	for _, c := range res.Clusters {
		sig = append(sig, fmt.Sprintf("dims=%v dnf=%s", c.Dims, c.DNF(res.Grid)))
	}
	sort.Strings(sig)
	return sig
}

// denseSignature renders the per-level dense-unit counts.
func denseSignature(res *mafia.Result) []string {
	sig := make([]string, len(res.Levels))
	for i, l := range res.Levels {
		sig[i] = fmt.Sprintf("k=%d ndu=%d", l.K, l.Ndu)
	}
	return sig
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialMAFIAvsCLIQUE is the cross-engine correctness
// harness: on a uniform grid with a global density threshold, downward
// closure holds (every face of a dense unit is dense), so pMAFIA's
// any-(k-2)-share join and CLIQUE's Apriori prefix join must identify
// exactly the same dense units and report exactly the same clusters —
// for every processor count and chunk size. The data is read out of
// core from a shared .pmaf file, so the comparison also pins the
// diskio pipeline (CRC frames, range scans) under the engines.
func TestDifferentialMAFIAvsCLIQUE(t *testing.T) {
	m, _, err := datagen.Generate(datagen.Spec{
		Dims: 6, Records: 4000, Seed: 77,
		Clusters: []datagen.Cluster{
			box(20, 40, 1, 3),
			box(60, 90, 0, 2, 4),
		},
		NoiseFraction: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "diff.pmaf")
	if err := diskio.WriteSource(path, m); err != nil {
		t.Fatal(err)
	}

	const bins, tau = 10, 0.02

	// Reference: single-rank, in-memory, serial scans.
	ref, err := mafia.Run(m, mafia.Config{
		Grid: mafia.UniformGrid, UniformBins: bins, UniformTau: tau,
	})
	if err != nil {
		t.Fatal(err)
	}
	refClusters := clusterSignature(ref)
	refDense := denseSignature(ref)
	if len(ref.Clusters) == 0 {
		t.Fatal("reference run found no clusters; the differential harness would be vacuous")
	}

	for _, p := range []int{1, 2, 4} {
		for _, chunk := range []int{512, 1333} {
			name := fmt.Sprintf("p=%d/chunk=%d", p, chunk)
			t.Run(name, func(t *testing.T) {
				f, err := diskio.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				shards := fileShards(f, p)

				mres, err := mafia.RunParallel(shards, nil, mafia.Config{
					Grid: mafia.UniformGrid, UniformBins: bins, UniformTau: tau,
					ChunkRecords: chunk,
				}, sp2.Config{Procs: p})
				if err != nil {
					t.Fatal(err)
				}
				cres, err := RunParallel(shards, nil, Config{
					Bins: bins, Tau: tau, ChunkRecords: chunk,
				}, sp2.Config{Procs: p})
				if err != nil {
					t.Fatal(err)
				}

				if got := denseSignature(mres); !equalStrings(got, refDense) {
					t.Errorf("pMAFIA dense units diverged from reference:\n got %v\nwant %v", got, refDense)
				}
				if got := denseSignature(cres); !equalStrings(got, refDense) {
					t.Errorf("CLIQUE dense units diverged from reference:\n got %v\nwant %v", got, refDense)
				}
				if got := clusterSignature(mres); !equalStrings(got, refClusters) {
					t.Errorf("pMAFIA clusters diverged from reference:\n got %v\nwant %v", got, refClusters)
				}
				if got := clusterSignature(cres); !equalStrings(got, refClusters) {
					t.Errorf("CLIQUE clusters diverged from reference:\n got %v\nwant %v", got, refClusters)
				}
			})
		}
	}
}

// TestDifferentialWorkers runs the same uniform-grid comparison with
// the intra-rank worker pool enabled: tallies merged from sharded
// chunks must leave the results bit-identical.
func TestDifferentialWorkers(t *testing.T) {
	m, _ := genData(t, 5, 3000, 21, box(10, 35, 0, 3))
	ref, err := mafia.Run(m, mafia.Config{
		Grid: mafia.UniformGrid, UniformBins: 10, UniformTau: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := clusterSignature(ref)
	for _, workers := range []int{2, 4} {
		res, err := mafia.Run(m, mafia.Config{
			Grid: mafia.UniformGrid, UniformBins: 10, UniformTau: 0.02,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := clusterSignature(res); !equalStrings(got, want) {
			t.Errorf("workers=%d diverged:\n got %v\nwant %v", workers, got, want)
		}
	}
}
