package pmafia

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden.pmaf and testdata/golden_clusters.txt")

// goldenSpec is the committed data set's generator spec: two
// well-separated clusters in distinct subspaces plus the generator's
// default noise. Changing it requires -update-golden and a review of
// the resulting cluster change.
func goldenSpec() Spec {
	return Spec{
		Dims:    7,
		Records: 5000,
		Clusters: []ClusterSpec{
			UniformBox([]int{1, 3}, []Range{{Lo: 20, Hi: 40}, {Lo: 55, Hi: 75}}, 0),
			UniformBox([]int{0, 4, 5}, []Range{{Lo: 60, Hi: 85}, {Lo: 10, Hi: 30}, {Lo: 40, Hi: 60}}, 0),
		},
		Seed: 424242,
	}
}

// goldenRender serializes a result's clusters — subspaces, per-dimension
// value bounds, and minimal DNF covers — into the canonical text the
// golden file stores. Bounds are printed through %v (exact float
// formatting), so any numeric drift in the grid or the cluster assembly
// shows up as a diff.
func goldenRender(res *Result) string {
	lines := make([]string, 0, len(res.Clusters)+1)
	for _, c := range res.Clusters {
		dims := make([]string, len(c.Dims))
		for i, d := range c.Dims {
			dims[i] = fmt.Sprint(d)
		}
		bounds := make([]string, 0, len(c.Dims))
		for i, b := range c.Bounds(res.Grid) {
			bounds = append(bounds, fmt.Sprintf("d%s=%v", dims[i], b))
		}
		lines = append(lines, fmt.Sprintf("cluster dims={%s} units=%d %s dnf=%s",
			strings.Join(dims, ","), c.Units.Len(), strings.Join(bounds, " "), c.DNF(res.Grid)))
	}
	sort.Strings(lines)
	return fmt.Sprintf("records=%d clusters=%d\n%s\n", res.N, len(res.Clusters), strings.Join(lines, "\n"))
}

// TestGoldenClusterRecovery is the end-to-end regression pin: the
// committed golden.pmaf data set, clustered out of core with the
// default configuration, must reproduce the committed cluster report
// exactly — subspaces, bin-resolved bounds, and DNF covers. The run
// reads the committed bytes (not regenerated data), so PMAF format
// drift, grid changes, kernel changes, and cluster-assembly changes all
// trip it. Run with -update-golden after an intended change.
func TestGoldenClusterRecovery(t *testing.T) {
	dataPath := filepath.Join("testdata", "golden.pmaf")
	wantPath := filepath.Join("testdata", "golden_clusters.txt")

	if *updateGolden {
		data, _, err := Generate(goldenSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(dataPath, data); err != nil {
			t.Fatal(err)
		}
	}

	f, err := OpenFile(dataPath)
	if err != nil {
		t.Fatalf("open committed golden data: %v (run with -update-golden to create it)", err)
	}
	res, err := Run(f, Config{ChunkRecords: 512})
	if err != nil {
		t.Fatal(err)
	}
	got := goldenRender(res)

	if *updateGolden {
		if err := os.WriteFile(wantPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden files updated:\n%s", got)
		return
	}

	wantBytes, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatalf("read golden clusters: %v (run with -update-golden to create it)", err)
	}
	if got != string(wantBytes) {
		t.Errorf("cluster report diverged from golden file\n got:\n%s\nwant:\n%s", got, string(wantBytes))
	}

	// The recovered clusters must include both planted subspaces.
	found := map[string]bool{}
	for _, c := range res.Clusters {
		dims := make([]string, len(c.Dims))
		for i, d := range c.Dims {
			dims[i] = fmt.Sprint(d)
		}
		found[strings.Join(dims, ",")] = true
	}
	for _, want := range []string{"1,3", "0,4,5"} {
		if !found[want] {
			t.Errorf("planted subspace {%s} not recovered; got %v", want, found)
		}
	}
}
