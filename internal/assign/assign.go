// Package assign compiles a fitted clustering result (the grid plus
// the clusters' DNF box covers) into a flat lookup index for batch
// record labeling.
//
// The linear oracle (mafia.Result.AssignRecord) tests every cluster's
// every cover box against the record — O(clusters·boxes·k) bin
// lookups per record. The index instead enumerates all cover boxes
// once, in cluster order, and stores for every (dimension, bin) the
// bitset of boxes a record falling in that bin can still satisfy
// (all-ones for dimensions a box does not constrain). A dimension in
// which every box's bin run spans every bin has all-ones rows only, so
// New lists the dimensions where some box's run leaves a bin out, and
// labeling a record is one bin lookup per listed dimension — BinOf's
// exact arithmetic followed by a direct fine-unit→bin table read — and
// a bitset AND over those rows; the unlisted dimensions are never
// binned, as the population kernel skips dimensions no CDU constrains.
// Because boxes are enumerated in cluster order, the first set bit of
// the intersection names the first matching cluster, reproducing the
// oracle's label bit for bit.
//
// The hot path is a batch-of-records kernel: AssignChunk labels
// BlockRecords records per outer iteration, dimension-major. Per
// bound dimension the table pointer is hoisted out of the record loop
// and the AND is unrolled across the block, so
// a bin's bitset row and the boxCluster table are touched once per
// block while they are hot instead of re-sliced once per record; a
// per-block liveness word keeps the scalar path's early exit at
// per-record granularity. The package tests keep a scalar
// per-record labeler as the bit-identity oracle the kernels are
// property-tested against.
package assign

import (
	"fmt"
	"math/bits"

	"pmafia/internal/cluster"
	"pmafia/internal/grid"
)

// dimTable is one dimension's compiled lookup state.
type dimTable struct {
	lo        float64 // domain low bound
	width     float64 // domain width
	fineF     float64 // float64(fineUnits), hoisted out of bin
	fineUnits int
	nbins     int
	unitBin   []uint16    // fine unit -> owning bin, fineUnits entries
	bits      []uint64    // nbins×words; bin b's candidate boxes at [b*words,(b+1)*words)
	bits2     [][2]uint64 // words==2 only: bits regrouped one row per bin
}

// Index labels records against a fixed set of clusters over a fixed
// grid. It is immutable after New and safe for concurrent use as long
// as each goroutine brings its own scratch buffer (see ScratchWords).
type Index struct {
	dims       []dimTable
	bound      []int   // ascending dims some box's bin run leaves a bin out of; the only dims the kernels bin
	words      int     // bitset words per bin: ceil(boxes/64)
	boxCluster []int32 // box index (bit position) -> cluster index
	clusters   int
}

// New compiles a grid and its clusters into an Index. The clusters
// must be consistent with the grid: subspace dims strictly ascending
// and in range, box bin runs within each dimension's bin count.
func New(g *grid.Grid, clusters []cluster.Cluster) (*Index, error) {
	if len(g.Dims) == 0 {
		return nil, fmt.Errorf("assign: grid has no dimensions")
	}
	nboxes := 0
	for _, c := range clusters {
		nboxes += len(c.Boxes)
	}
	words := (nboxes + 63) / 64
	ix := &Index{
		dims:       make([]dimTable, len(g.Dims)),
		words:      words,
		boxCluster: make([]int32, 0, nboxes),
		clusters:   len(clusters),
	}
	for di := range g.Dims {
		d := &g.Dims[di]
		nb := d.NumBins()
		if nb == 0 {
			return nil, fmt.Errorf("assign: dim %d has no bins", di)
		}
		if nb > 1<<16 {
			return nil, fmt.Errorf("assign: dim %d has %d bins, index supports at most %d", di, nb, 1<<16)
		}
		t := dimTable{
			lo:        d.Domain.Lo,
			width:     d.Domain.Width(),
			fineF:     float64(d.FineUnits()),
			fineUnits: d.FineUnits(),
			nbins:     nb,
			unitBin:   make([]uint16, d.FineUnits()),
			bits:      make([]uint64, nb*words),
		}
		next := 0
		for bi, b := range d.Bins {
			if b.UnitLo != next || b.UnitHi <= b.UnitLo || b.UnitHi > t.fineUnits {
				return nil, fmt.Errorf("assign: dim %d: bin %d covers fine units [%d,%d), want a tiling from %d", di, bi, b.UnitLo, b.UnitHi, next)
			}
			for u := b.UnitLo; u < b.UnitHi; u++ {
				t.unitBin[u] = uint16(bi)
			}
			next = b.UnitHi
		}
		if next != t.fineUnits {
			return nil, fmt.Errorf("assign: dim %d: bins cover %d fine units, grid has %d", di, next, t.fineUnits)
		}
		ix.dims[di] = t
	}

	// Enumerate cover boxes in cluster order and fill the per-bin
	// candidate bitsets, noting the dims where a run leaves a bin out.
	bound := make([]bool, len(g.Dims))
	box := 0
	for ci := range clusters {
		c := &clusters[ci]
		for x, d := range c.Dims {
			if int(d) >= len(g.Dims) {
				return nil, fmt.Errorf("assign: cluster %d constrains dim %d, grid has %d dims", ci, d, len(g.Dims))
			}
			if x > 0 && c.Dims[x-1] >= d {
				return nil, fmt.Errorf("assign: cluster %d: subspace dims not strictly ascending", ci)
			}
		}
		for bi := range c.Boxes {
			b := &c.Boxes[bi]
			if len(b.BinLo) != len(c.Dims) || len(b.BinHi) != len(c.Dims) {
				return nil, fmt.Errorf("assign: cluster %d box %d spans %d dims, cluster subspace has %d", ci, bi, len(b.BinLo), len(c.Dims))
			}
			for x, d := range c.Dims {
				t := &ix.dims[d]
				lo, hi := int(b.BinLo[x]), int(b.BinHi[x])
				if lo > hi || hi >= t.nbins {
					return nil, fmt.Errorf("assign: cluster %d box %d: bin run [%d,%d] out of dim %d's %d bins", ci, bi, lo, hi, d, t.nbins)
				}
				for bin := lo; bin <= hi; bin++ {
					t.bits[bin*words+box/64] |= 1 << (box % 64)
				}
				if lo > 0 || hi < t.nbins-1 {
					bound[d] = true
				}
			}
			// Dimensions outside the cluster's subspace accept any bin.
			x := 0
			for di := range g.Dims {
				if x < len(c.Dims) && int(c.Dims[x]) == di {
					x++
					continue
				}
				t := &ix.dims[di]
				for bin := 0; bin < t.nbins; bin++ {
					t.bits[bin*words+box/64] |= 1 << (box % 64)
				}
			}
			ix.boxCluster = append(ix.boxCluster, int32(ci))
			box++
		}
	}
	for di, b := range bound {
		if b {
			ix.bound = append(ix.bound, di)
		}
	}
	// The two-word kernel indexes whole bin rows; regroup bits so a
	// row is one element (one bounds check, one 16-byte load).
	if words == 2 {
		for di := range ix.dims {
			t := &ix.dims[di]
			t.bits2 = make([][2]uint64, t.nbins)
			for b := range t.bits2 {
				t.bits2[b] = [2]uint64{t.bits[2*b], t.bits[2*b+1]}
			}
		}
	}
	return ix, nil
}

// Dims returns the record dimensionality the index labels.
func (ix *Index) Dims() int { return len(ix.dims) }

// Clusters returns the number of clusters the index labels against.
func (ix *Index) Clusters() int { return ix.clusters }

// Boxes returns the total number of cover boxes compiled into the
// index (the bitset width).
func (ix *Index) Boxes() int { return len(ix.boxCluster) }

// BlockRecords is the batch-kernel block width: AssignChunk labels
// this many records per outer iteration, and the per-block liveness
// mask is one uint64, so the width is fixed at 64.
const BlockRecords = 64

// ScratchWords is the length of AssignChunk's working buffer: one
// bitset accumulator per record of a full block (BlockRecords ×
// words). Concurrent callers need one buffer each. The kernels write
// every accumulator before they read it, so a recycled buffer needs no
// clearing.
func (ix *Index) ScratchWords() int { return BlockRecords * ix.words }

// scratchNeed returns the scratch words AssignChunk needs for n
// records: a full block's accumulators, or fewer when the whole chunk
// is shorter than one block.
func (ix *Index) scratchNeed(n int) int {
	if n > BlockRecords {
		n = BlockRecords
	}
	return n * ix.words
}

// bin maps a value to its bin index with BinOf's exact arithmetic —
// the fine unit f with the same clamping (NaN and below-domain values
// to the first unit, at-or-above-domain to the last) — then reads the
// bin owning that unit from the fine-unit→bin table.
func (t *dimTable) bin(v float64) int {
	f := t.fineF * (v - t.lo) / t.width
	u := 0
	switch {
	case !(f > 0): // below domain, or NaN
	case f >= t.fineF:
		u = t.fineUnits - 1
	default:
		u = int(f)
	}
	return int(t.unitBin[u])
}

// nzBit is 1<<63 when a is nonzero, 0 otherwise — the branch-free
// liveness bit the full-block kernels shift into their mask.
func nzBit(a uint64) uint64 {
	return (a | -a) & (1 << 63)
}

// assignBlock labels n (1..BlockRecords) records stored row-major in
// rows, writing labels[0:n]. scratch must have at least n*words
// entries. The kernel is dimension-major over the bound dims: each
// one's table is loaded once and applied to every record of the
// block, the liveness word dropping records whose candidate set
// emptied so they cost nothing on later dimensions — the per-record
// early exit of the scalar path, at block granularity. Label order,
// clamping, and tie-breaking are bit-identical to the scalar
// per-record oracle in the package tests, which ANDs every dimension.
func (ix *Index) assignBlock(rows []float64, n int, labels []int32, scratch []uint64) {
	if ix.words == 0 || len(ix.bound) == 0 {
		// No boxes: every record is an outlier. No bound dims: every
		// row is all-ones, so every record lands in box 0.
		l := int32(-1)
		if ix.words > 0 {
			l = ix.boxCluster[0]
		}
		for r := 0; r < n; r++ {
			labels[r] = l
		}
		return
	}
	switch ix.words {
	case 1:
		ix.assignBlock1(rows, n, labels, scratch)
	case 2:
		ix.assignBlock2(rows, n, labels, scratch)
	default:
		ix.assignBlockN(rows, n, labels, scratch)
	}
}

// assignBlock1 is the single-bitset-word kernel (up to 64 boxes): one
// accumulator word per record, no inner word loop, no copy. Full
// blocks take the specialized fast path; only a chunk's short tail
// block runs the generic loop.
func (ix *Index) assignBlock1(rows []float64, n int, labels []int32, scratch []uint64) {
	if n == BlockRecords {
		ix.assignBlock1Full((*[BlockRecords]uint64)(scratch), rows, (*[BlockRecords]int32)(labels))
		return
	}
	d := len(ix.dims)
	acc := scratch[:n]
	d0 := ix.bound[0]
	t := &ix.dims[d0]
	live := uint64(0)
	for r := 0; r < n; r++ {
		a := t.bits[t.bin(rows[r*d+d0])]
		acc[r] = a
		if a != 0 {
			live |= 1 << r
		}
	}
	for _, di := range ix.bound[1:] {
		if live == 0 {
			break
		}
		t := &ix.dims[di]
		for rem := live; rem != 0; {
			r := bits.TrailingZeros64(rem)
			rem &^= 1 << r
			a := acc[r] & t.bits[t.bin(rows[r*d+di])]
			acc[r] = a
			if a == 0 {
				live &^= 1 << r
			}
		}
	}
	for r := 0; r < n; r++ {
		if a := acc[r]; a != 0 {
			labels[r] = ix.boxCluster[bits.TrailingZeros64(a)]
		} else {
			labels[r] = -1
		}
	}
}

// assignBlock1Full labels one full block of BlockRecords records.
//
// The fixed block width is what buys the speed: the accumulators and
// labels are pointer-to-array typed and every loop runs exactly
// BlockRecords iterations, so index arithmetic is provably in bounds
// and the compiler drops the checks; the liveness word is built by
// shifting the block down one bit per record (record r's bit lands at
// position r after the full pass), so no variable-shift guards run in
// the dense loops; and the per-dim table fields are copied to locals
// once per pass, so accumulator stores cannot force their reload.
//
// Per dimension the kernel picks between two record loops on the
// liveness count. While at least half the block is live it runs a
// dense pass over every record — the bin divides of the block are
// mutually independent, so they pipeline instead of serializing
// behind the scalar path's per-record early-exit branch, and a dead
// record just ANDs into its zero accumulator, which cannot resurrect
// it. Once most of the block has died it switches to a sparse walk
// of the liveness word so dead records cost nothing — the scalar
// early exit at block granularity.
func (ix *Index) assignBlock1Full(acc *[BlockRecords]uint64, rows []float64, labels *[BlockRecords]int32) {
	d := len(ix.dims)
	p := ix.bound[0]
	t := &ix.dims[p]
	lo, width, fineF := t.lo, t.width, t.fineF
	ub, bt := t.unitBin, t.bits
	live := uint64(0)
	alive := 0
	for r := 0; r < BlockRecords; r++ {
		f := fineF * (rows[p] - lo) / width
		a := bt[ub[grid.ClampUnit(f, ub)]]
		acc[r] = a
		alive += int(nzBit(a) >> 63)
		p += d
	}
	for _, di := range ix.bound[1:] {
		if alive == 0 {
			break
		}
		t := &ix.dims[di]
		if alive >= BlockRecords/2 {
			// Dense pass: no liveness word to maintain, only a
			// survivor count (dead records AND into zero and stay
			// dead).
			lo, width, fineF := t.lo, t.width, t.fineF
			ub, bt := t.unitBin, t.bits
			cnt := 0
			p := di
			for r := 0; r < BlockRecords; r++ {
				f := fineF * (rows[p] - lo) / width
				a := acc[r] & bt[ub[grid.ClampUnit(f, ub)]]
				acc[r] = a
				cnt += int(nzBit(a) >> 63)
				p += d
			}
			alive = cnt
			continue
		}
		if live == 0 {
			// Entering the sparse regime: rebuild the liveness word
			// the dense passes stopped maintaining (record r's bit
			// lands at position r after the full shift-down pass).
			for r := 0; r < BlockRecords; r++ {
				live = live>>1 | nzBit(acc[r])
			}
		}
		for rem := live; rem != 0; {
			r := bits.TrailingZeros64(rem) % BlockRecords
			rem &^= 1 << r
			a := acc[r] & t.bits[t.bin(rows[r*d+di])]
			acc[r] = a
			if a == 0 {
				live &^= 1 << r
				alive--
			}
		}
	}
	bc := ix.boxCluster
	for r := 0; r < BlockRecords; r++ {
		if a := acc[r]; a != 0 {
			labels[r] = bc[bits.TrailingZeros64(a)]
		} else {
			labels[r] = -1
		}
	}
}

// assignBlock2 is the two-word kernel (65..128 boxes): the pair of
// accumulator words per record is indexed directly, with the word
// loop unrolled. Full blocks take the specialized fast path.
func (ix *Index) assignBlock2(rows []float64, n int, labels []int32, scratch []uint64) {
	if n == BlockRecords {
		ix.assignBlock2Full(scratch, rows, (*[BlockRecords]int32)(labels))
		return
	}
	d := len(ix.dims)
	acc := scratch[:2*n]
	d0 := ix.bound[0]
	t := &ix.dims[d0]
	live := uint64(0)
	for r := 0; r < n; r++ {
		b := 2 * t.bin(rows[r*d+d0])
		a0, a1 := t.bits[b], t.bits[b+1]
		acc[2*r], acc[2*r+1] = a0, a1
		if a0|a1 != 0 {
			live |= 1 << r
		}
	}
	for _, di := range ix.bound[1:] {
		if live == 0 {
			break
		}
		t := &ix.dims[di]
		for rem := live; rem != 0; {
			r := bits.TrailingZeros64(rem)
			rem &^= 1 << r
			b := 2 * t.bin(rows[r*d+di])
			a0 := acc[2*r] & t.bits[b]
			a1 := acc[2*r+1] & t.bits[b+1]
			acc[2*r], acc[2*r+1] = a0, a1
			if a0|a1 == 0 {
				live &^= 1 << r
			}
		}
	}
	for r := 0; r < n; r++ {
		switch {
		case acc[2*r] != 0:
			labels[r] = ix.boxCluster[bits.TrailingZeros64(acc[2*r])]
		case acc[2*r+1] != 0:
			labels[r] = ix.boxCluster[64+bits.TrailingZeros64(acc[2*r+1])]
		default:
			labels[r] = -1
		}
	}
}

// assignBlock2Full is assignBlock1Full's structure at bitset width
// two; see that kernel for why the fixed block width matters. The
// two accumulator words per record live in two parallel planes of
// the scratch buffer rather than interleaved, so every accumulator
// index is the plain record number and provably in bounds.
func (ix *Index) assignBlock2Full(scratch []uint64, rows []float64, labels *[BlockRecords]int32) {
	acc0 := (*[BlockRecords]uint64)(scratch)
	acc1 := (*[BlockRecords]uint64)(scratch[BlockRecords:])
	d := len(ix.dims)
	p := ix.bound[0]
	t := &ix.dims[p]
	lo, width, fineF := t.lo, t.width, t.fineF
	ub, bt := t.unitBin, t.bits2
	live := uint64(0)
	cnt0 := 0
	for r := 0; r < BlockRecords; r++ {
		f := fineF * (rows[p] - lo) / width
		w := bt[ub[grid.ClampUnit(f, ub)]]
		acc0[r], acc1[r] = w[0], w[1]
		cnt0 += int(nzBit(w[0]|w[1]) >> 63)
		p += d
	}
	alive := cnt0
	for _, di := range ix.bound[1:] {
		if alive == 0 {
			break
		}
		t := &ix.dims[di]
		if alive >= BlockRecords/2 {
			// Dense pass: no liveness word to maintain, only a
			// survivor count (dead records AND into zero and stay
			// dead), unrolled two records per iteration.
			lo, width, fineF := t.lo, t.width, t.fineF
			ub, bt := t.unitBin, t.bits2
			cnt := 0
			p := di
			for r := 0; r < BlockRecords; r += 2 {
				f0 := fineF * (rows[p] - lo) / width
				w0 := bt[ub[grid.ClampUnit(f0, ub)]]
				a0 := acc0[r] & w0[0]
				b0 := acc1[r] & w0[1]
				acc0[r], acc1[r] = a0, b0
				f1 := fineF * (rows[p+d] - lo) / width
				w1 := bt[ub[grid.ClampUnit(f1, ub)]]
				a1 := acc0[r+1] & w1[0]
				b1 := acc1[r+1] & w1[1]
				acc0[r+1], acc1[r+1] = a1, b1
				cnt += int(nzBit(a0|b0)>>63) + int(nzBit(a1|b1)>>63)
				p += 2 * d
			}
			alive = cnt
			continue
		}
		if live == 0 {
			// Entering the sparse regime: rebuild the liveness word
			// the dense passes stopped maintaining.
			for r := 0; r < BlockRecords; r++ {
				live = live>>1 | nzBit(acc0[r]|acc1[r])
			}
		}
		for rem := live; rem != 0; {
			r := bits.TrailingZeros64(rem) % BlockRecords
			rem &^= 1 << r
			w := t.bits2[t.bin(rows[r*d+di])]
			a0 := acc0[r] & w[0]
			a1 := acc1[r] & w[1]
			acc0[r], acc1[r] = a0, a1
			if a0|a1 == 0 {
				live &^= 1 << r
				alive--
			}
		}
	}
	bc := ix.boxCluster
	for r := 0; r < BlockRecords; r++ {
		switch {
		case acc0[r] != 0:
			labels[r] = bc[bits.TrailingZeros64(acc0[r])]
		case acc1[r] != 0:
			labels[r] = bc[64+bits.TrailingZeros64(acc1[r])]
		default:
			labels[r] = -1
		}
	}
}

// assignBlockN is the general kernel for any bitset width. At three
// or more accumulator words per record the word loop dominates every
// (record, dimension) step and the accumulators no longer fit a
// register-friendly footprint, so dimension-major processing buys
// nothing over the scalar order; the kernel instead walks the block
// record-major with the scalar path's early exit, sharing one
// words-wide accumulator and the hoisted dispatch cost across the
// block.
func (ix *Index) assignBlockN(rows []float64, n int, labels []int32, scratch []uint64) {
	d, words := len(ix.dims), ix.words
	acc := scratch[:words]
	d0, rest := ix.bound[0], ix.bound[1:]
	for r := 0; r < n; r++ {
		rec := rows[r*d : (r+1)*d]
		t := &ix.dims[d0]
		q := t.bin(rec[d0]) * words
		row := t.bits[q : q+words]
		nz := uint64(0)
		for w := range row {
			acc[w] = row[w]
			nz |= row[w]
		}
		for _, di := range rest {
			if nz == 0 {
				break
			}
			t := &ix.dims[di]
			q := t.bin(rec[di]) * words
			row := t.bits[q : q+words]
			nz = 0
			for w := range row {
				acc[w] &= row[w]
				nz |= acc[w]
			}
		}
		labels[r] = -1
		if nz != 0 {
			for w, aw := range acc {
				if aw != 0 {
					labels[r] = ix.boxCluster[w*64+bits.TrailingZeros64(aw)]
					break
				}
			}
		}
	}
}

// AssignChunk labels len(labels) records stored row-major in chunk
// (len(chunk) must be len(labels)*Dims()) without allocating, running
// the batch kernel block by block; scratch holds ScratchWords words.
func (ix *Index) AssignChunk(chunk []float64, labels []int32, scratch []uint64) error {
	d := len(ix.dims)
	if len(chunk) != len(labels)*d {
		return fmt.Errorf("assign: chunk of %d values for %d %d-dim labels", len(chunk), len(labels), d)
	}
	if need := ix.scratchNeed(len(labels)); len(scratch) < need {
		return fmt.Errorf("assign: scratch has %d words, the batch kernel needs %d (%d-record blocks of %d words)",
			len(scratch), need, BlockRecords, ix.words)
	}
	for base := 0; base < len(labels); base += BlockRecords {
		n := len(labels) - base
		if n > BlockRecords {
			n = BlockRecords
		}
		ix.assignBlock(chunk[base*d:], n, labels[base:base+n], scratch)
	}
	return nil
}
