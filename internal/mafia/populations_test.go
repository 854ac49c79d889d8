package mafia

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/obs"
	"pmafia/internal/rng"
	"pmafia/internal/sp2"
)

// untimed drops the wall-clock fields of level stats.
func untimed(levels []LevelStats) []LevelStats {
	out := slices.Clone(levels)
	for i := range out {
		out[i].Seconds, out[i].PopulateSeconds = 0, 0
	}
	return out
}

// streamTally is what a streamFits run saw.
type streamTally struct {
	appendedOnly int // fits that counted only appended records at every level
	recounted    int // fits after the first that counted some level in full
	newCDUs      int // fits with a CDU the previous fit had not counted
	grownReused  int // appendedOnly fits after a domain grew
}

// streamFits refits m after every cut, a prefix length (a repeated one
// appends nothing), keeping the populations across fits as the
// streaming ingester does. Each fit must equal a from-scratch fit of
// the same prefix: grid, clusters, levels without their timing fields,
// and every level's CDUs and populations. The fine-unit count is fixed:
// the automatic one changes with every append below 10,000 records,
// and with it every dimension's bin mapping.
func streamFits(t *testing.T, m *dataset.Matrix, cuts []int) streamTally {
	t.Helper()
	var tally streamTally
	var pops Populations
	prev := 0
	for _, n := range cuts {
		prefix := m.Slice(0, n)
		prior := pops
		rec := obs.New()
		got, err := Run(prefix, Config{FineUnits: 200, Populations: &pops, Recorder: rec})
		if err != nil {
			t.Fatalf("incremental fit of %d records: %v", n, err)
		}
		var fresh Populations
		want, err := Run(prefix, Config{FineUnits: 200, Populations: &fresh})
		if err != nil {
			t.Fatalf("from-scratch fit of %d records: %v", n, err)
		}
		// Printed, not reflect.DeepEqual: an infinite domain puts NaN in
		// bin bounds, and %v prints every other float64 exactly.
		if got.N != want.N || fmt.Sprint(got.Grid.Spec()) != fmt.Sprint(want.Grid.Spec()) {
			t.Fatalf("%d records: the incremental fit's grid differs from scratch", n)
		}
		if !reflect.DeepEqual(got.Clusters, want.Clusters) {
			t.Fatalf("%d records: clusters differ from scratch", n)
		}
		if !reflect.DeepEqual(untimed(got.Levels), untimed(want.Levels)) {
			t.Fatalf("%d records: levels %+v, from scratch %+v", n, untimed(got.Levels), untimed(want.Levels))
		}
		if pops.N != n || fresh.N != n || len(pops.Levels) != len(fresh.Levels) {
			t.Fatalf("%d records: populations of %d levels over %d records, from scratch %d over %d",
				n, len(pops.Levels), pops.N, len(fresh.Levels), fresh.N)
		}
		for i, lv := range pops.Levels {
			if !reflect.DeepEqual(lv.CDUs, fresh.Levels[i].CDUs) || !slices.Equal(lv.Counts, fresh.Levels[i].Counts) {
				t.Fatalf("%d records, level %d: populations %v, from scratch %v", n, i+2, lv.Counts, fresh.Levels[i].Counts)
			}
			if i < len(prior.Levels) && newCDU(prior.Levels[i], lv) {
				tally.newCDUs++
			}
		}

		scanned := rec.Counter(obs.CtrPopulateRecords)
		if prev > 0 {
			if scanned == int64(len(pops.Levels)*(n-prev)) {
				tally.appendedOnly++
				for i := range got.Grid.Dims {
					if got.Grid.Dims[i].Domain != prior.Grid.Dims[i].Domain {
						tally.grownReused++
						break
					}
				}
			} else {
				tally.recounted++
			}
		}
		prev = n
	}
	return tally
}

// newCDU reports whether level holds a CDU that prior did not.
func newCDU(prior, level LevelPopulations) bool {
	had := map[string]bool{}
	for i := 0; i < prior.CDUs.Len(); i++ {
		had[prior.CDUs.Key(i)] = true
	}
	for i := 0; i < level.CDUs.Len(); i++ {
		if !had[level.CDUs.Key(i)] {
			return true
		}
	}
	return false
}

// cutsOf returns the prefix lengths of a stream whose appends cycle
// through sizes, up to n records.
func cutsOf(n int, sizes ...int) []int {
	var cuts []int
	for at, i := 0, 0; at < n; i++ {
		at = min(n, at+sizes[i%len(sizes)])
		cuts = append(cuts, at)
	}
	return cuts
}

// TestIncrementalFitMatchesScratch streams data sets through fits that
// keep their populations, refitting after every append, and checks
// each fit against a from-scratch one.
func TestIncrementalFitMatchesScratch(t *testing.T) {
	t.Run("single-dim growth and chunk sizes", func(t *testing.T) {
		// Dimension 5 holds no cluster, so no CDU constrains it.
		base, _ := genData(t, 6, 12000, 21, box(20, 34, 0, 2, 4), box(60, 74, 1, 3))
		// After a first chunk of 6000 records, every other append first
		// widens one dimension's domain, dimension 5's every second time,
		// with a record inside every other domain.
		m := &dataset.Matrix{D: base.D, Values: slices.Clone(base.Slice(0, 6000).Values)}
		cuts := []int{6000}
		sizes := []int{1, 2, 7, 64, 65, 300, 1200, 3000}
		grow := []int{5, 0, 5, 3, 5, 1, 5, 4, 5, 2}
		for i, at := 0, 6000; at < base.NumRecords(); i++ {
			if i%2 == 1 {
				rec := slices.Clone(base.Row(at))
				dim := grow[(i/2)%len(grow)]
				rec[dim] = 100 + float64(i)
				if i%4 == 3 {
					rec[dim] = -float64(i)
				}
				m.Append(rec)
			}
			hi := min(base.NumRecords(), at+sizes[i%len(sizes)])
			m.Values = append(m.Values, base.Slice(at, hi).Values...)
			at = hi
			cuts = append(cuts, m.NumRecords())
		}
		tally := streamFits(t, m, cuts)
		if tally.grownReused == 0 || tally.recounted == 0 {
			t.Errorf("%+v: want fits that reuse every level after dimension 5 grew, and fits that recount one", tally)
		}
	})

	t.Run("NaN and infinities", func(t *testing.T) {
		m, _ := genData(t, 4, 5000, 22, box(30, 42, 0, 1, 3))
		for i := 0; i < m.NumRecords(); i += 37 {
			m.Row(i)[i%4] = math.NaN()
		}
		m.Row(4200)[2] = math.Inf(1)
		m.Row(4600)[1] = math.Inf(-1)
		tally := streamFits(t, m, cutsOf(m.NumRecords(), 400, 250, 1, 900))
		if tally.appendedOnly == 0 {
			t.Errorf("%+v: no fit reused every level", tally)
		}
	})

	t.Run("a bin range that moves", func(t *testing.T) {
		// Dimension 0's dense run [20,30) takes in the next window in one
		// append: its bins keep their number and its domain stays, but the
		// unit ranges move, so the one level-2 CDU keeps its key and must
		// still be counted in full.
		r := rng.New(26)
		m := &dataset.Matrix{D: 3}
		for i := 0; i < 1000; i++ {
			for j := 0; j < 3; j++ {
				m.Append([]float64{r.In(20, 30), r.In(20, 30), r.In(0, 100)})
			}
			for j := 0; j < 2; j++ {
				m.Append([]float64{r.In(0, 100), r.In(0, 100), r.In(0, 100)})
			}
		}
		for i := 0; i < 400; i++ {
			m.Append([]float64{r.In(30, 32.5), r.In(20, 30), r.In(0, 100)})
		}
		var grids []*grid.Grid
		for _, n := range []int{5000, 5400} {
			res, err := Run(m.Slice(0, n), Config{FineUnits: 200})
			if err != nil {
				t.Fatal(err)
			}
			grids = append(grids, res.Grid)
		}
		unitRanges := func(d *grid.Dim) (r [][2]int) {
			for _, b := range d.Bins {
				r = append(r, [2]int{b.UnitLo, b.UnitHi})
			}
			return r
		}
		before, after := &grids[0].Dims[0], &grids[1].Dims[0]
		if before.Domain != after.Domain || before.NumBins() != after.NumBins() ||
			slices.Equal(unitRanges(before), unitRanges(after)) {
			t.Fatalf("dimension 0 went from %v to %v, want the same domain and bin count over other unit ranges",
				unitRanges(before), unitRanges(after))
		}
		tally := streamFits(t, m, []int{5000, 5000, 5400})
		if tally.appendedOnly != 1 || tally.recounted != 1 {
			t.Errorf("%+v: want the refit with nothing appended to reuse every level and the last to recount", tally)
		}
	})

	t.Run("nothing appended and a threshold flip", func(t *testing.T) {
		// The second cluster's records arrive only after the first's, so
		// its units turn dense partway through the stream and change the
		// CDU sets of later levels.
		a, _ := genData(t, 6, 3000, 23, box(20, 30, 0, 1, 2))
		b, _ := genData(t, 6, 3000, 24, box(60, 70, 3, 4, 5))
		m := &dataset.Matrix{D: 6, Values: append(slices.Clone(a.Values), b.Values...)}
		cuts := cutsOf(m.NumRecords(), 500, 150)
		cuts = append(cuts[:3:3], append([]int{cuts[2]}, cuts[3:]...)...) // one refit with nothing appended
		tally := streamFits(t, m, cuts)
		if tally.appendedOnly == 0 || tally.newCDUs == 0 {
			t.Errorf("%+v: want fits that reuse every level and a fit whose CDU set grew", tally)
		}
	})
}

// TestPopulationsRejected checks the fits that may not take stored
// populations refuse them.
func TestPopulationsRejected(t *testing.T) {
	m, _ := genData(t, 4, 2000, 25, box(30, 42, 0, 1))
	var pops Populations
	if _, err := Run(m, Config{Populations: &pops}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunParallel([]dataset.Source{m.Slice(0, 1000), m.Slice(1000, 2000)}, nil,
		Config{Populations: &pops}, sp2.Config{Procs: 2}); err == nil {
		t.Error("a two-rank fit took stored populations")
	}
	if err := (&Config{Populations: &pops, Resume: &Snapshot{}}).Validate(4); err == nil {
		t.Error("Validate let a resumed fit take stored populations")
	}
	if _, err := Run(m.Slice(0, 1000), Config{Populations: &pops}); err == nil {
		t.Error("a fit took populations counted over more records than it has")
	}
	bad := pops
	bad.Levels = slices.Clone(pops.Levels)
	bad.Levels[0].Counts = bad.Levels[0].Counts[1:]
	if err := (&Config{Populations: &bad}).Validate(4); err == nil {
		t.Error("Validate took a level with a count missing")
	}
	if err := (&Config{Populations: &pops}).Validate(5); err == nil {
		t.Error("Validate took populations of another dimensionality")
	}
}
