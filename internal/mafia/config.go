// Package mafia implements the pMAFIA subspace clustering engine
// (Algorithm 2 of the paper): a single pass builds per-dimension
// histograms, the adaptive grid fixes variable-sized bins and
// thresholds, and a bottom-up level loop alternates candidate-dense-
// unit generation (task parallel), population counting over the data
// (data parallel, out of core), and dense-unit identification until no
// dense units remain; finally the registered dense units are assembled
// into clusters.
//
// The same engine also runs the CLIQUE baseline: a uniform grid, the
// prefix join, and a global density threshold are injected through the
// Config (see internal/clique).
package mafia

import (
	"errors"
	"fmt"

	"pmafia/internal/gen"
	"pmafia/internal/grid"
	"pmafia/internal/histogram"
	"pmafia/internal/obs"
	"pmafia/internal/unit"
)

// GridKind selects how bins and thresholds are computed.
type GridKind int

const (
	// AdaptiveGrid is pMAFIA's Algorithm 1 (default).
	AdaptiveGrid GridKind = iota
	// UniformGrid is CLIQUE's fixed equal-width binning with a global
	// density threshold.
	UniformGrid
	// UniformVariableGrid is the Table 3 variant: a per-dimension bin
	// count with a global density threshold.
	UniformVariableGrid
)

// CountStrategy selects the population-pass implementation.
type CountStrategy int

const (
	// CountAuto picks per level: the bit-sliced direct kernel for small
	// candidate sets, the grouped bitset kernel beyond
	// autoCountThreshold CDUs (default).
	CountAuto CountStrategy = iota
	// CountGrouped folds each record's bin tuple into a linear cell
	// index per distinct subspace and answers membership with a bitset
	// plus popcount rank — O(d + Σ|subspace|) per record with no
	// hashing or allocation. A CDU set with a subspace whose cell space
	// is too large for the bitset (past 2^26 cells) is counted by
	// CountDirect instead.
	CountGrouped
	// CountDirect counts blocks of 64 records bit-sliced: every
	// dimension some CDU constrains is binned once per record into one
	// 64-bit record mask per used (dim, bin) pair, and each CDU adds
	// the popcount of the AND of its k masks — O(touched dims + Σk/64)
	// per record, with no per-record branch. Every direct pass after a
	// run's first loads the masks from the rank's binned copy instead
	// of binning records (see binnedCopy).
	CountDirect
)

// autoCountThreshold is the CDU count above which CountAuto switches
// from the direct kernel to the grouped one. The direct kernel pays
// Σk ANDs per CDU set per 64 records, the grouped kernel a cell lookup
// per subspace per record, so the winner depends on how many CDUs
// share a subspace. BenchmarkPopulateKernels (50 k records, one
// worker) brackets the switch: with 140 CDUs of k=4 spread 1 to 3 per
// subspace, the shape of a deep fit's levels, direct takes 4.0 ms
// against grouped's 74 ms; with every cell of 20 three-dimensional
// subspaces (20 000 CDUs) direct takes 124 ms against grouped's 34 ms.
// A CDU count cannot tell these shapes apart, so the threshold stays
// where the scalar scan's crossover put it; no level of the perfbench
// fits exceeds it. These figures are raw-pass costs: a direct level
// after a run's first counts from the binned copy instead, 2.1 ms
// against 5.7-6.0 ms raw on the deep shape, and 161-186 ms against
// 154-193 ms on the dense one, where the per-block ANDs dominate.
const autoCountThreshold = 512

// Config parameterizes a clustering run.
type Config struct {
	// Grid selects adaptive (pMAFIA) or uniform (CLIQUE) binning.
	Grid GridKind
	// Adaptive holds Algorithm 1 parameters (AdaptiveGrid only).
	Adaptive grid.AdaptiveParams
	// UniformBins is ξ, the bins per dimension (UniformGrid only).
	UniformBins int
	// UniformBinsPerDim overrides UniformBins per dimension
	// (UniformVariableGrid only).
	UniformBinsPerDim []int
	// UniformTau is CLIQUE's global density threshold as a fraction of
	// N (uniform grids only).
	UniformTau float64

	// FineUnits is the number of fine histogram units per dimension.
	FineUnits int
	// Hist, when non-nil, is a precomputed global fine histogram: the
	// engine skips the domains and histogram passes entirely and builds
	// the grid straight from it (its Domains become the run's domains).
	// The streaming ingester uses this to refit from incrementally
	// maintained counts without re-scanning the accumulated data twice.
	// Every rank must be handed the identical histogram — all ranks
	// skip the same collectives, so the SPMD invariant holds. The
	// caller keeps ownership; the engine only reads it.
	Hist *histogram.Hist
	// Populations, when non-nil, holds the CDU populations of an earlier
	// single-rank fit over the first Populations.N records of the same
	// source. A level whose every CDU was counted there, under an
	// unchanged bin mapping in each dimension it constrains, scans only
	// the records past those and adds the stored counts, which gives the
	// counts of a full pass exactly. After a successful run it holds this
	// fit's populations, so the next fit can take it again. The streaming
	// ingester keeps one across refits. A fit on more than one rank or a
	// resumed fit rejects it.
	Populations *Populations
	// ChunkRecords is B, the number of records read per I/O chunk.
	ChunkRecords int
	// Tau is τ: a task-parallel step is divided among ranks only when
	// it has more than Tau items, otherwise every rank does all of it
	// (the paper's minimal-work guarantee).
	Tau int
	// Join is the candidate generation rule; nil means the MAFIA join.
	Join gen.Join
	// Count selects the population-pass strategy.
	Count CountStrategy
	// Workers is the intra-rank worker-pool size for the histogram and
	// population passes: each chunk's records are sharded across this
	// many goroutines with worker-private tallies merged at scan end.
	// 0 or 1 runs the passes inline.
	Workers int
	// MaxLevels caps the level loop (0 = up to the data dimensionality).
	MaxLevels int
	// Prune, when non-nil, is called after dense-unit identification at
	// each level with the dense units and their global populations; it
	// returns the units allowed to seed the next level (CLIQUE's MDL
	// subspace pruning plugs in here). It must be deterministic — every
	// rank calls it on identical inputs.
	Prune func(du *unit.Array, counts []int64) *unit.Array
	// Recorder, when non-nil, receives per-rank phase spans and engine
	// counters; it is also handed to the sp2 machine so collectives
	// charge their cost into the enclosing span. nil costs nothing.
	Recorder *obs.Recorder
	// OnCheckpoint, when non-nil, is called on rank 0 after each level
	// of the bottom-up loop completes (post-prune) with a read-only
	// snapshot of the replicated engine state. The call is synchronous;
	// an error aborts the fit. It must be deterministic in its effect
	// on the run (it can only abort, not alter state).
	OnCheckpoint func(*Snapshot) error
	// Resume, when non-nil, skips the histogram and grid phases and
	// re-enters the level loop at Resume.Level+1. The snapshot must
	// come from a run over the same data with the same configuration —
	// internal/ckpt's config fingerprint enforces this for checkpoints
	// loaded from disk.
	Resume *Snapshot
}

// Validate fills defaults and rejects inconsistent settings.
func (c *Config) Validate(dims int) error {
	if dims <= 0 || dims > 255 {
		return fmt.Errorf("mafia: dimensionality %d out of [1,255] (unit encoding is one byte per dim)", dims)
	}
	// FineUnits == 0 means auto: the engine picks from the data size
	// (min(1000, max(50, N/10))) once the record count is known. An
	// explicit count above grid.MaxFineUnits, or above
	// grid.MaxTotalFineUnits over all dims, would fit a model the model
	// loader refuses.
	if c.FineUnits < 0 || c.FineUnits > grid.MaxFineUnits {
		return fmt.Errorf("mafia: FineUnits %d out of [0,%d]", c.FineUnits, grid.MaxFineUnits)
	}
	if c.FineUnits*dims > grid.MaxTotalFineUnits {
		return fmt.Errorf("mafia: FineUnits %d × %d dims exceeds the grid cap of %d fine units", c.FineUnits, dims, grid.MaxTotalFineUnits)
	}
	if c.Hist != nil {
		if len(c.Hist.Domains) != dims {
			return fmt.Errorf("mafia: precomputed histogram spans %d dims, data has %d", len(c.Hist.Domains), dims)
		}
		if c.Hist.N <= 0 {
			return fmt.Errorf("mafia: precomputed histogram holds %d records", c.Hist.N)
		}
		if c.Hist.Units > grid.MaxFineUnits || c.Hist.Units*dims > grid.MaxTotalFineUnits {
			return fmt.Errorf("mafia: precomputed histogram has %d fine units × %d dims, the caps are %d per dim and %d in all",
				c.Hist.Units, dims, grid.MaxFineUnits, grid.MaxTotalFineUnits)
		}
	}
	if c.Populations != nil {
		if c.Resume != nil {
			return errors.New("mafia: a resumed fit cannot take stored populations")
		}
		if err := c.Populations.validate(dims); err != nil {
			return err
		}
	}
	if c.ChunkRecords == 0 {
		c.ChunkRecords = 8192
	}
	if c.ChunkRecords < 1 {
		return fmt.Errorf("mafia: ChunkRecords %d < 1", c.ChunkRecords)
	}
	if c.Tau == 0 {
		c.Tau = 64
	}
	if c.Workers < 0 {
		return fmt.Errorf("mafia: Workers %d < 0", c.Workers)
	}
	if c.Tau < 1 {
		return fmt.Errorf("mafia: Tau %d < 1", c.Tau)
	}
	if c.MaxLevels == 0 {
		c.MaxLevels = dims
	}
	if c.MaxLevels < 1 {
		return fmt.Errorf("mafia: MaxLevels %d < 1", c.MaxLevels)
	}
	if c.MaxLevels > dims {
		c.MaxLevels = dims
	}
	if c.Join == nil {
		c.Join = gen.MergeMAFIA
	}
	switch c.Grid {
	case AdaptiveGrid:
		if err := c.Adaptive.Validate(); err != nil {
			return err
		}
	case UniformGrid:
		if c.UniformBins == 0 {
			c.UniformBins = 10
		}
		if c.UniformTau == 0 {
			c.UniformTau = 0.01
		}
		if c.UniformBins < 1 || c.UniformBins > grid.MaxBins {
			return &grid.BinCountError{Dim: -1, Bins: c.UniformBins}
		}
		if c.UniformTau <= 0 || c.UniformTau >= 1 {
			return fmt.Errorf("mafia: UniformTau %v out of (0,1)", c.UniformTau)
		}
	case UniformVariableGrid:
		if len(c.UniformBinsPerDim) != dims {
			return fmt.Errorf("mafia: UniformBinsPerDim has %d entries for %d dims", len(c.UniformBinsPerDim), dims)
		}
		// Bin indices are one byte; a per-dimension count past
		// grid.MaxBins would truncate unit keys, so reject it here
		// rather than mid-run in the grid build.
		for dim, xi := range c.UniformBinsPerDim {
			if xi < 1 || xi > grid.MaxBins {
				return &grid.BinCountError{Dim: dim, Bins: xi}
			}
		}
		if c.UniformTau == 0 {
			c.UniformTau = 0.01
		}
	default:
		return fmt.Errorf("mafia: unknown grid kind %d", c.Grid)
	}
	return nil
}
