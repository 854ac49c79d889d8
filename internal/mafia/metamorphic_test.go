package mafia

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/rng"
)

// clusterSet renders res's clusters as a sorted list of canonical
// strings: each cluster is its sorted dense units, with every unit's
// dims mapped through toOrig and re-sorted. Runs over permuted columns
// then compare equal exactly when they found the same clusters. DNF
// boxes are left out on purpose: the greedy cover may pick them in a
// different order when the dims are renumbered.
func clusterSet(res *Result, toOrig []int) []string {
	out := make([]string, 0, len(res.Clusters))
	for _, c := range res.Clusters {
		units := make([]string, c.Units.Len())
		for i := range units {
			dims, bins := c.Units.Unit(i)
			pairs := make([][2]int, len(dims))
			for x := range dims {
				pairs[x] = [2]int{toOrig[dims[x]], int(bins[x])}
			}
			sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
			units[i] = fmt.Sprint(pairs)
		}
		sort.Strings(units)
		out = append(out, strings.Join(units, " "))
	}
	sort.Strings(out)
	return out
}

// TestMetamorphicRecordAndDimOrder checks two invariants of the
// paper's semantics rather than agreement with an earlier run.
// Permuting the records changes nothing: domains, histograms and
// thresholds are order-free. Permuting the dimensions (new column π(j)
// holds old column j) changes only the dims' numbering: dimension π(j)
// gets old dimension j's bins, and every cluster maps back through π⁻¹
// to an original one. The rank-count invariant is
// TestParallelMatchesSerial.
func TestMetamorphicRecordAndDimOrder(t *testing.T) {
	const d = 8
	for _, seed := range []uint64{5, 11, 23} {
		m, _ := genData(t, d, 20000, seed, box(20, 32, 1, 3, 4), box(55, 75, 0, 2, 5, 7))
		n := m.NumRecords()
		ref, err := Run(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Clusters) == 0 {
			t.Fatalf("seed %d: reference run found no clusters; the test would be vacuous", seed)
		}
		identity := make([]int, d)
		for j := range identity {
			identity[j] = j
		}
		want := clusterSet(ref, identity)
		r := rng.New(seed)

		rows := r.Perm(n)
		byRecord := dataset.NewMatrix(n, d)
		for i, src := range rows {
			copy(byRecord.Row(i), m.Row(src))
		}
		got, err := Run(byRecord, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Grid.Dims, ref.Grid.Dims) {
			t.Errorf("seed %d: permuting records changed the grid", seed)
		}
		compareLevels(t, fmt.Sprintf("seed %d records", seed), got, ref)
		if cs := clusterSet(got, identity); !reflect.DeepEqual(cs, want) {
			t.Errorf("seed %d: permuting records changed the clusters:\n got %v\nwant %v", seed, cs, want)
		}

		pi := r.Perm(d) // new column pi[j] holds old column j
		toOrig := make([]int, d)
		for j, to := range pi {
			toOrig[to] = j
		}
		byDim := dataset.NewMatrix(n, d)
		for i := 0; i < n; i++ {
			row, out := m.Row(i), byDim.Row(i)
			for j, v := range row {
				out[pi[j]] = v
			}
		}
		got, err = Run(byDim, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < d; j++ {
			a, b := &got.Grid.Dims[pi[j]], &ref.Grid.Dims[j]
			if a.Uniform != b.Uniform || !reflect.DeepEqual(a.Bins, b.Bins) {
				t.Errorf("seed %d: dim %d moved to %d: bins %+v, want %+v", seed, j, pi[j], a.Bins, b.Bins)
			}
		}
		compareLevels(t, fmt.Sprintf("seed %d dims %v", seed, pi), got, ref)
		if cs := clusterSet(got, toOrig); !reflect.DeepEqual(cs, want) {
			t.Errorf("seed %d: permuting dims by %v changed the clusters:\n got %v\nwant %v", seed, pi, cs, want)
		}
	}
}

func compareLevels(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Levels) != len(want.Levels) {
		t.Errorf("%s: %d levels, want %d", what, len(got.Levels), len(want.Levels))
		return
	}
	for i := range got.Levels {
		if !sameCounts(got.Levels[i], want.Levels[i]) {
			t.Errorf("%s: level %d %+v, want %+v", what, i, got.Levels[i], want.Levels[i])
		}
	}
}
