// Package clique implements the CLIQUE baseline (Agrawal, Gehrke,
// Gunopulos, Raghavan — SIGMOD'98) the paper compares against: uniform
// equal-width grids with a user-chosen bin count ξ, a global density
// threshold τ (a fraction of N), Apriori prefix-join candidate
// generation, optional MDL-based subspace pruning, and a greedy
// maximal-rectangle cover for cluster descriptions. It runs on the
// same engine and message-passing machine as pMAFIA, so the paper's
// parallel head-to-head comparisons (Table 1, Figure 4) are
// apples-to-apples.
//
// The paper's Table 2 additionally evaluates a *modified* CLIQUE whose
// join is MAFIA's any-(k-2)-share rule over uniform grids; set
// Modified to true for that variant.
package clique

import (
	"math"
	"sort"

	"pmafia/internal/dataset"
	"pmafia/internal/gen"
	"pmafia/internal/mafia"
	"pmafia/internal/obs"
	"pmafia/internal/sp2"
	"pmafia/internal/unit"
)

// Config parameterizes a CLIQUE run.
type Config struct {
	// Bins is ξ, the number of equal-width bins per dimension
	// (default 10, the paper's setting).
	Bins int
	// BinsPerDim overrides Bins with a per-dimension count (the
	// "variable bins" run of Table 3).
	BinsPerDim []int
	// Tau is the global density threshold as a fraction of N
	// (default 0.01, i.e. 1%).
	Tau float64
	// Modified switches candidate generation to the MAFIA
	// any-(k-2)-share join (the paper's modified implementation of [2]
	// used in Table 2 and §5.5).
	Modified bool
	// MDLPrune enables CLIQUE's minimum-description-length subspace
	// pruning. The paper runs both systems without it (it can lose
	// dense units); off by default.
	MDLPrune bool
	// ChunkRecords is B, the records per I/O chunk.
	ChunkRecords int
	// TaskTau is the minimum item count for task-parallel division.
	TaskTau int
	// Workers is the intra-rank worker-pool size for the histogram and
	// population passes (0 or 1: inline), as in mafia.Config.
	Workers int
	// MaxLevels caps the level loop.
	MaxLevels int
	// Recorder, when non-nil, receives phase spans and engine counters
	// exactly as in a pMAFIA run (the baseline shares the engine).
	Recorder *obs.Recorder
}

func (c *Config) toMafia(dims int) mafia.Config {
	join := gen.MergeCLIQUE
	if c.Modified {
		join = gen.MergeMAFIA
	}
	mc := mafia.Config{
		FineUnits:    lcmFineUnits(c, dims),
		ChunkRecords: c.ChunkRecords,
		Tau:          c.TaskTau,
		Workers:      c.Workers,
		Join:         join,
		MaxLevels:    c.MaxLevels,
		UniformTau:   c.Tau,
		Recorder:     c.Recorder,
	}
	if c.BinsPerDim != nil {
		mc.Grid = mafia.UniformVariableGrid
		mc.UniformBinsPerDim = c.BinsPerDim
	} else {
		mc.Grid = mafia.UniformGrid
		mc.UniformBins = c.Bins
	}
	if c.MDLPrune {
		mc.Prune = MDLPrune
	}
	return mc
}

// lcmFineUnits picks a fine-unit count that every requested bin count
// divides, so uniform bins land exactly on fine-unit boundaries.
func lcmFineUnits(c *Config, dims int) int {
	l := 1
	consider := func(b int) {
		if b > 0 {
			l = lcm(l, b)
		}
	}
	if c.BinsPerDim != nil {
		for _, b := range c.BinsPerDim {
			consider(b)
		}
	} else if c.Bins > 0 {
		consider(c.Bins)
	} else {
		consider(10)
	}
	// Scale up to at least 1000 units for histogram resolution without
	// breaking divisibility.
	units := l
	for units < 1000 {
		units += l
	}
	return units
}

func lcm(a, b int) int {
	g := a
	x := b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// Run executes CLIQUE on a single processor.
func Run(src dataset.Source, cfg Config) (*mafia.Result, error) {
	return RunParallel([]dataset.Source{src}, nil, cfg, sp2.Config{Procs: 1})
}

// RunParallel executes the parallelized CLIQUE of §5.4 ("we ran our
// parallelized version of CLIQUE"): the same data/task parallel
// structure with CLIQUE's grid, threshold, and join.
func RunParallel(shards []dataset.Source, domains []dataset.Range, cfg Config, mcfg sp2.Config) (*mafia.Result, error) {
	d := 0
	if len(shards) > 0 {
		d = shards[0].Dims()
	}
	return mafia.RunParallel(shards, domains, cfg.toMafia(d), mcfg)
}

// subspaceCoverage pairs a subspace key with its summed dense-unit
// population.
type subspaceCoverage struct {
	key string
	cov int64
}

// MDLPrune implements CLIQUE's minimum-description-length subspace
// selection: subspaces are ranked by coverage (the summed population
// of their dense units); the cut point minimizing the MDL code length
// CL(i) = Σ_{selected} log2(|x_S − μ_I|+1) + log2(μ_I+1) +
// Σ_{pruned} log2(|x_S − μ_P|+1) + log2(μ_P+1) keeps the
// high-coverage subspaces and drops the dense units of the rest.
func MDLPrune(du *unit.Array, counts []int64) *unit.Array {
	if du.Len() == 0 || len(counts) != du.Len() {
		return du
	}
	// Coverage per subspace.
	cov := map[string]int64{}
	for i := 0; i < du.Len(); i++ {
		cov[du.SubspaceKey(i)] += counts[i]
	}
	subs := make([]subspaceCoverage, 0, len(cov))
	for k, v := range cov {
		subs = append(subs, subspaceCoverage{k, v})
	}
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].cov != subs[j].cov {
			return subs[i].cov > subs[j].cov
		}
		return subs[i].key < subs[j].key
	})
	if len(subs) == 1 {
		return du
	}
	cut := bestMDLCut(subs)
	keep := map[string]bool{}
	for i := 0; i <= cut; i++ {
		keep[subs[i].key] = true
	}
	out := unit.New(du.K, du.Len())
	for i := 0; i < du.Len(); i++ {
		if keep[du.SubspaceKey(i)] {
			d, b := du.Unit(i)
			out.AppendRaw(d, b)
		}
	}
	return out
}

// bestMDLCut returns the index of the last selected subspace.
func bestMDLCut(subs []subspaceCoverage) int {
	n := len(subs)
	prefix := make([]int64, n+1)
	for i, s := range subs {
		prefix[i+1] = prefix[i] + s.cov
	}
	best, bestCL := n-1, math.Inf(1)
	for cut := 0; cut < n-1; cut++ {
		nI := cut + 1
		nP := n - nI
		muI := float64(prefix[nI]) / float64(nI)
		muP := float64(prefix[n]-prefix[nI]) / float64(nP)
		cl := math.Log2(muI+1) + math.Log2(muP+1)
		for i := 0; i < n; i++ {
			var mu float64
			if i <= cut {
				mu = muI
			} else {
				mu = muP
			}
			cl += math.Log2(math.Abs(float64(subs[i].cov)-mu) + 1)
		}
		if cl < bestCL {
			bestCL = cl
			best = cut
		}
	}
	return best
}

// maxCoverCells caps the bin-space size handled by GreedyCover's flat
// bitset (8 MB of membership bits); wider spaces fall back to the
// hash-map lookup.
const maxCoverCells = 1 << 26

// GreedyCover reproduces CLIQUE's greedy growth cluster description:
// starting from each not-yet-covered dense unit, a rectangle is grown
// greedily in every dimension while all cells it would span are dense,
// yielding a set of (possibly overlapping) maximal rectangles that
// cover the cluster — the approximate description §3.2 of the pMAFIA
// paper contrasts with its exact minimal DNF.
//
// Dense-cell membership — the inner query of the slab scans — is a
// flat bitset over the occupied bin space (strides per dimension
// position, one Get per cell) whenever that space fits maxCoverCells,
// and the per-cell string hash otherwise.
func GreedyCover(units *unit.Array) []Rect {
	k := units.K
	// Extent per dimension position: max observed bin + 1.
	ext := make([]int64, k)
	for x := range ext {
		ext[x] = 1
	}
	for i := 0; i < units.Len(); i++ {
		_, b := units.Unit(i)
		for x := 0; x < k; x++ {
			if int64(b[x])+1 > ext[x] {
				ext[x] = int64(b[x]) + 1
			}
		}
	}
	cells := int64(1)
	stride := make([]int64, k)
	for x := k - 1; x >= 0; x-- {
		stride[x] = cells
		if cells > maxCoverCells/ext[x]+1 { // overflow guard
			cells = maxCoverCells + 1
			break
		}
		cells *= ext[x]
	}
	var present func(b []uint8) bool
	if k > 0 && cells <= maxCoverCells {
		bs := unit.NewBitset(int(cells))
		for i := 0; i < units.Len(); i++ {
			_, b := units.Unit(i)
			cell := int64(0)
			for x := 0; x < k; x++ {
				cell += stride[x] * int64(b[x])
			}
			bs.Set(int(cell))
		}
		present = func(b []uint8) bool {
			cell := int64(0)
			for x := range b {
				if int64(b[x]) >= ext[x] { // beyond any occupied bin
					return false
				}
				cell += stride[x] * int64(b[x])
			}
			return bs.Get(int(cell))
		}
	} else {
		bins := make(map[string]bool, units.Len())
		for i := 0; i < units.Len(); i++ {
			_, b := units.Unit(i)
			bins[string(b)] = true
		}
		present = func(b []uint8) bool { return bins[string(b)] }
	}
	covered := make([]bool, units.Len())
	var rects []Rect
	for i := 0; i < units.Len(); i++ {
		if covered[i] {
			continue
		}
		_, b := units.Unit(i)
		lo := append([]uint8(nil), b...)
		hi := append([]uint8(nil), b...)
		for x := 0; x < k; x++ {
			for lo[x] > 0 && slabPresent(present, lo, hi, x, lo[x]-1) {
				lo[x]--
			}
			for hi[x] < 255 && slabPresent(present, lo, hi, x, hi[x]+1) {
				hi[x]++
			}
		}
		rects = append(rects, Rect{Lo: lo, Hi: hi})
		// Mark everything inside the rectangle covered.
		for j := 0; j < units.Len(); j++ {
			if covered[j] {
				continue
			}
			_, bj := units.Unit(j)
			inside := true
			for x := 0; x < k; x++ {
				if bj[x] < lo[x] || bj[x] > hi[x] {
					inside = false
					break
				}
			}
			if inside {
				covered[j] = true
			}
		}
	}
	return rects
}

// Rect is a rectangle of bins, inclusive on both ends, in the order of
// the unit array's subspace dimensions.
type Rect struct {
	Lo, Hi []uint8
}

// slabPresent reports whether every cell of the rectangle's slab at
// coordinate v along dimension x exists in the dense set.
func slabPresent(present func([]uint8) bool, lo, hi []uint8, x int, v uint8) bool {
	k := len(lo)
	cell := make([]uint8, k)
	copy(cell, lo)
	cell[x] = v
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == k {
			return present(cell)
		}
		if d == x {
			return rec(d + 1)
		}
		for c := lo[d]; ; c++ {
			cell[d] = c
			if !rec(d + 1) {
				return false
			}
			if c == hi[d] {
				break
			}
		}
		return true
	}
	return rec(0)
}
