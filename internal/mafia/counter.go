package mafia

import (
	"math/bits"
	"sort"
	"time"

	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/obs"
	"pmafia/internal/pool"
	"pmafia/internal/unit"
)

// maxFlatCells caps the cell count of a subspace handled by the
// flat/bitset kernel: membership costs 1 bit per cell plus a 4-byte
// rank entry per 64 cells, so the cap bounds the tables at ~9 MB per
// subspace. Sparser-than-that subspaces (high k over many bins) fall
// back to the hash-map kernel.
const maxFlatCells = 1 << 26

// subspace is the per-subspace lookup structure of the grouped
// population kernel. In flat mode a record's bin tuple is folded into a
// linear cell index via precomputed strides; a bitset answers "is this
// cell a CDU" and a popcount rank maps hits to CDU indices — no hashing
// and no allocation anywhere on the per-record path. In map mode (the
// pre-pipelining implementation, kept as the fallback for cell spaces
// past maxFlatCells) the bin tuple is hashed.
type subspace struct {
	dims   []uint8
	stride []int64 // per dim position: Π bins of later positions

	// flat/bitset mode (member != nil):
	member  *unit.Bitset // dense-cell membership over the cell space
	rankPfx []int32      // popcount prefix per member word
	remap   []int32      // membership rank -> index into counts

	// map mode:
	byKey map[string]int
}

// blockRecords is the direct kernel's block width: record r of a block
// owns bit r of every atom mask, so a block is one uint64 wide.
const blockRecords = 64

// sliceDim is one dimension the direct kernel bins: BinOf's domain
// transform plus a fine-unit→atom table. An atom is a (dim, bin) pair
// some CDU uses; every other bin maps to the shared junk slot 0.
type sliceDim struct {
	dim              int
	lo, width, fineF float64
	unitAtom         []uint16
}

// counter populates candidate dense units from a stream of records.
// The grouped strategies organize CDUs by their subspace: one cell (or
// hash) lookup per (record, subspace), O(d + Σ_s k_s) per record. The
// direct strategy is bit-sliced over blocks of 64 records: each
// dimension some CDU constrains is binned once per record into a mask
// per atom, and each CDU adds popcount(AND of its k atom masks) once
// per block — O(touched dims + Σk/64) per record, with no branch on the
// data.
type counter struct {
	g        *grid.Grid
	cdus     *unit.Array
	counts   []int64
	records  int64 // records scanned by this counter
	strategy CountStrategy
	subs     []subspace

	// CountDirect: the CDU set compiled once per level
	slices   []sliceDim // dimensions some CDU constrains, ascending
	atoms    int        // mask slots: junk slot 0 plus one per atom
	atomIDs  [][]uint16 // per dim: bin -> atom id, 0 = junk; nil = unconstrained
	cduAtoms []uint16   // each CDU's K atom ids, CDU-major like cdus.Dims
}

// countScratch is the per-worker mutable state of the population
// kernel; every pool worker owns one so chunks can be sharded across
// cores with no sharing.
type countScratch struct {
	counts []int64
	binRow []uint8  // bin index per data dimension (grouped)
	keyBuf []uint8  // bins of one subspace (map mode)
	masks  []uint64 // one record mask per atom slot (direct)
}

func newCounter(g *grid.Grid, cdus *unit.Array, strategy CountStrategy) *counter {
	if strategy == CountAuto {
		if cdus.Len() > autoCountThreshold {
			strategy = CountGrouped
		} else {
			strategy = CountDirect
		}
	}
	c := &counter{
		g:        g,
		cdus:     cdus,
		counts:   make([]int64, cdus.Len()),
		strategy: strategy,
	}
	if strategy == CountDirect {
		c.buildSlices()
	} else {
		c.buildSubspaces(strategy == CountGroupedMap)
	}
	return c
}

// newScratch allocates one worker's kernel state around counts.
func (c *counter) newScratch(counts []int64) countScratch {
	if c.strategy == CountDirect {
		return countScratch{counts: counts, masks: make([]uint64, c.atoms)}
	}
	return countScratch{
		counts: counts,
		binRow: make([]uint8, len(c.g.Dims)),
		keyBuf: make([]uint8, c.cdus.K),
	}
}

// buildSlices compiles the CDU set for the direct kernel: the
// constrained dimensions in ascending order, one atom id per used
// (dim, bin) pair — numbered dimension-major, so one dimension's masks
// are adjacent — and each CDU's K atom ids. Fine units map to atoms
// through the grid's own unit→bin table, so binning is BinOf's exactly.
func (c *counter) buildSlices() {
	ids := make([][]uint16, len(c.g.Dims))
	c.atomIDs = ids
	for x, dim := range c.cdus.Dims {
		if ids[dim] == nil {
			ids[dim] = make([]uint16, grid.MaxBins+1)
		}
		ids[dim][c.cdus.Bins[x]] = 1
	}
	next := uint16(1)
	for dim, id := range ids {
		if id == nil {
			continue
		}
		for b, used := range id {
			if used != 0 {
				id[b] = next
				next++
			}
		}
		gd := &c.g.Dims[dim]
		t := sliceDim{
			dim:      dim,
			lo:       gd.Domain.Lo,
			width:    gd.Domain.Width(),
			fineF:    float64(gd.FineUnits()),
			unitAtom: make([]uint16, gd.FineUnits()),
		}
		for u := range t.unitAtom {
			t.unitAtom[u] = id[gd.UnitBin(u)]
		}
		c.slices = append(c.slices, t)
	}
	c.atoms = int(next)
	c.cduAtoms = make([]uint16, len(c.cdus.Dims))
	for x, dim := range c.cdus.Dims {
		c.cduAtoms[x] = ids[dim][c.cdus.Bins[x]]
	}
}

// buildSubspaces groups the CDUs by subspace and constructs each
// subspace's lookup structure: flat/bitset when the cell space is small
// enough (and not forced to map mode), the hash map otherwise.
func (c *counter) buildSubspaces(forceMap bool) {
	bySub := map[string]int{} // subspace key -> index in c.subs
	members := [][]int{}      // CDU indices per subspace
	for i := 0; i < c.cdus.Len(); i++ {
		d, _ := c.cdus.Unit(i)
		sk := string(d)
		si, ok := bySub[sk]
		if !ok {
			si = len(c.subs)
			bySub[sk] = si
			c.subs = append(c.subs, subspace{dims: append([]uint8(nil), d...)})
			members = append(members, nil)
		}
		members[si] = append(members[si], i)
	}
	for si := range c.subs {
		s := &c.subs[si]
		cells := int64(1)
		s.stride = make([]int64, len(s.dims))
		for x := len(s.dims) - 1; x >= 0; x-- {
			s.stride[x] = cells
			nb := int64(c.g.Dims[s.dims[x]].NumBins())
			if cells > maxFlatCells/nb+1 {
				cells = maxFlatCells + 1 // overflow guard: force map mode
				break
			}
			cells *= nb
		}
		if forceMap || cells > maxFlatCells {
			s.byKey = make(map[string]int, len(members[si]))
			for _, i := range members[si] {
				_, b := c.cdus.Unit(i)
				s.byKey[string(b)] = i
			}
			s.stride = nil
			continue
		}
		s.member = unit.NewBitset(int(cells))
		type cellIdx struct {
			cell int64
			idx  int
		}
		order := make([]cellIdx, 0, len(members[si]))
		for _, i := range members[si] {
			_, b := c.cdus.Unit(i)
			cell := int64(0)
			for x := range s.dims {
				cell += s.stride[x] * int64(b[x])
			}
			s.member.Set(int(cell))
			order = append(order, cellIdx{cell, i})
		}
		sort.Slice(order, func(a, b int) bool {
			if order[a].cell != order[b].cell {
				return order[a].cell < order[b].cell
			}
			return order[a].idx < order[b].idx
		})
		s.rankPfx = s.member.RankTable()
		// One remap entry per distinct cell (= per set bit). Duplicate
		// CDUs share a cell; keep the largest index, matching the map
		// path's insertion-order overwrite, so both grouped kernels
		// attribute identically. (The engine dedups before populating,
		// so duplicates only reach here through direct kernel use.)
		s.remap = make([]int32, 0, len(order))
		for x, ci := range order {
			if x+1 < len(order) && order[x+1].cell == ci.cell {
				continue
			}
			s.remap = append(s.remap, int32(ci.idx))
		}
	}
}

// addChunkInto counts n row-major records into the scratch's tallies.
// It is the hot loop of the population phase and performs no
// allocation; workers call it concurrently with disjoint scratches.
// With frame non-nil (the direct kernel writing the binned copy), the
// atom masks of the records' blocks are also stored, block by block,
// from the start of frame.
func (c *counter) addChunkInto(sc *countScratch, chunk []float64, n int, frame []byte) {
	d := len(c.g.Dims)
	switch c.strategy {
	case CountGrouped, CountGroupedMap:
		for r := 0; r < n; r++ {
			c.g.BinRow(chunk[r*d:(r+1)*d], sc.binRow)
			for si := range c.subs {
				s := &c.subs[si]
				if s.member != nil {
					cell := int64(0)
					for x, dim := range s.dims {
						cell += s.stride[x] * int64(sc.binRow[dim])
					}
					if s.member.Get(int(cell)) {
						rk := s.member.Rank(s.rankPfx, int(cell))
						sc.counts[s.remap[rk]]++
					}
				} else {
					key := sc.keyBuf[:len(s.dims)]
					for x, dim := range s.dims {
						key[x] = sc.binRow[dim]
					}
					if idx, ok := s.byKey[string(key)]; ok {
						sc.counts[idx]++
					}
				}
			}
		}
	default: // CountDirect
		for lo := 0; lo < n; lo += blockRecords {
			b := min(n-lo, blockRecords)
			c.binBlock(chunk[lo*d:(lo+b)*d], b, sc.masks)
			if frame != nil {
				frame = storeMasks(frame, sc.masks[1:])
			}
			c.tallyBlock(sc)
		}
	}
}

// binBlock is the first half of the direct kernel over one block of n
// (1..blockRecords) row-major records. Dimension-major, it bins every
// constrained dimension of every record and sets the record's bit in
// the mask of the atom the bin maps to. Dimensions no CDU constrains
// are never binned.
func (c *counter) binBlock(rows []float64, n int, masks []uint64) {
	d := len(c.g.Dims)
	clear(masks)
	for si := range c.slices {
		t := &c.slices[si]
		lo, width, fineF, ua := t.lo, t.width, t.fineF, t.unitAtom
		bit := uint64(1)
		for p := t.dim; p < n*d; p += d {
			f := fineF * (rows[p] - lo) / width
			masks[ua[grid.ClampUnit(f, ua)]] |= bit
			bit <<= 1
		}
	}
}

// tallyBlock is the second half of the direct kernel: each CDU adds the
// popcount of the AND of its K atom masks.
func (c *counter) tallyBlock(sc *countScratch) {
	k := c.cdus.K
	ids := c.cduAtoms
	masks := sc.masks
	for i := range sc.counts {
		a := ids[i*k : (i+1)*k]
		m := masks[a[0]]
		for _, id := range a[1:] {
			m &= masks[id]
		}
		sc.counts[i] += int64(bits.OnesCount64(m))
	}
}

// scratches returns one kernel state per worker. A single worker
// tallies straight into c.counts; a pool's workers tally into private
// arrays that merge adds up.
func (c *counter) scratches(workers int) []countScratch {
	if workers <= 1 {
		return []countScratch{c.newScratch(c.counts)}
	}
	s := make([]countScratch, workers)
	for w := range s {
		s[w] = c.newScratch(make([]int64, len(c.counts)))
	}
	return s
}

// merge adds the workers' private tallies into c.counts and returns
// the wall-clock time it took (0 for a single worker, which tallied in
// place). The merged tallies equal a one-worker pass's exactly (int64
// sums commute).
func (c *counter) merge(s []countScratch) float64 {
	if len(s) == 1 {
		return 0
	}
	start := time.Now()
	for w := range s {
		for i, v := range s[w].counts {
			c.counts[i] += v
		}
	}
	return time.Since(start).Seconds()
}

// scan counts every record of src with an intra-rank worker pool:
// chunks are sharded across workers on block boundaries, so no
// direct-kernel block is split, and the workers' tallies are merged
// once the scan ends. With out non-nil (a direct counter's first pass
// of a run) the workers also store every block's atom masks in out's
// frame — disjoint blocks, so disjoint bytes — and out writes the frame
// after each chunk. Returns the wall-clock time of the merge.
func (c *counter) scan(src dataset.Source, chunkRecords, workers int, out *binnedCopy) (mergeSeconds float64, err error) {
	d := len(c.g.Dims)
	s := c.scratches(workers)
	var done func(n int)
	if out != nil {
		done = out.writeFrame
	}
	n, err := pool.Scan(src, chunkRecords, workers, blockRecords, func(w int, chunk []float64, lo, hi int) {
		var frame []byte
		if out != nil {
			frame = out.buf[lo/blockRecords*out.stride:]
		}
		c.addChunkInto(&s[w], chunk[lo*d:hi*d], hi-lo, frame)
	}, done)
	if err != nil {
		return 0, err
	}
	c.records += n
	return c.merge(s), nil
}

// PopulateCounts counts each CDU's population over src — the
// population kernel with a chosen strategy and worker count, exposed
// for benchmarks and differential tests. It returns the per-CDU counts
// aligned with cdus.
func PopulateCounts(g *grid.Grid, cdus *unit.Array, src dataset.Source, chunkRecords, workers int, strategy CountStrategy) ([]int64, error) {
	cnt := newCounter(g, cdus, strategy)
	if _, err := cnt.scan(src, chunkRecords, workers, nil); err != nil {
		return nil, err
	}
	return cnt.counts, nil
}

// levelTally is the single per-level bookkeeping record of the engine:
// the phase code fills it in as the level runs, and both the reported
// LevelStats and the recorder's counters are derived from it — one
// source of truth, no double bookkeeping.
type levelTally struct {
	k          int     // level dimensionality
	raw        int     // CDUs generated before repeat elimination
	unique     int     // CDUs whose population was counted
	dense      int     // dense units identified
	records    int64   // records scanned by the population pass
	seconds    float64 // wall-clock time of the whole level
	popSeconds float64 // wall-clock time of the population pass
	mergeSec   float64 // wall-clock time of the pool's tally merge
}

// stats converts the tally into the LevelStats row Result reports.
func (t *levelTally) stats() LevelStats {
	return LevelStats{
		K: t.k, NcduRaw: t.raw, Ncdu: t.unique, Ndu: t.dense,
		Seconds: t.seconds, PopulateSeconds: t.popSeconds,
	}
}

// emit mirrors the tally into the recorder's counter space: run-wide
// totals plus a per-level dense-unit count. A nil recorder is free.
func (t *levelTally) emit(rec *obs.Recorder, rank int) {
	if rec == nil {
		return
	}
	rec.Add(rank, obs.CtrCDUsGenerated, int64(t.raw))
	rec.Add(rank, obs.CtrCDUsDeduped, int64(t.raw-t.unique))
	rec.Add(rank, obs.CtrCDUsPopulated, int64(t.unique))
	rec.Add(rank, obs.CtrDenseUnits, int64(t.dense))
	rec.Add(rank, obs.CtrPopulateRecords, t.records)
	rec.Add(rank, obs.CtrPoolMergeNS, int64(t.mergeSec*1e9))
	rec.Add(rank, obs.LevelDenseCounter(t.k), int64(t.dense))
}

// maxThreshold returns the density threshold of CDU i: its population
// must exceed the threshold of every bin that forms it, so the
// effective bar is the maximum (paper §4.4).
func maxThreshold(g *grid.Grid, cdus *unit.Array, i int) float64 {
	d, b := cdus.Unit(i)
	t := 0.0
	for x := range d {
		bt := g.Dims[d[x]].Bins[b[x]].Threshold
		if bt > t {
			t = bt
		}
	}
	return t
}
