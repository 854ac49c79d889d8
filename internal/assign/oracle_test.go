package assign

import (
	"fmt"
	"math/bits"
)

// The scalar per-record labeler: the bit-identity oracle the batch
// kernels are property-tested against. It lives with the tests because
// no production path labels one record at a time.

// Scratch allocates a working buffer for AssignChunk and AssignRecord.
func (ix *Index) Scratch() []uint64 { return make([]uint64, ix.ScratchWords()) }

// AssignRecord labels one record: the index of the first cluster
// containing it, or -1 for an outlier. scratch comes from Scratch.
func (ix *Index) AssignRecord(rec []float64, scratch []uint64) (int32, error) {
	if len(rec) != len(ix.dims) {
		return 0, fmt.Errorf("assign: %d-dim record, index labels %d dims", len(rec), len(ix.dims))
	}
	if len(scratch) < ix.words {
		return 0, fmt.Errorf("assign: scratch has %d words, index needs %d", len(scratch), ix.words)
	}
	return ix.assign(rec, scratch[:ix.words]), nil
}

// assign labels one record; and must have ix.words entries.
func (ix *Index) assign(rec []float64, and []uint64) int32 {
	if ix.words == 0 {
		return -1
	}
	t := &ix.dims[0]
	b := t.bin(rec[0])
	copy(and, t.bits[b*ix.words:(b+1)*ix.words])
	for di := 1; di < len(ix.dims); di++ {
		t := &ix.dims[di]
		b := t.bin(rec[di])
		row := t.bits[b*ix.words : (b+1)*ix.words]
		nz := uint64(0)
		for w := range and {
			and[w] &= row[w]
			nz |= and[w]
		}
		if nz == 0 {
			return -1
		}
	}
	for w, word := range and {
		if word != 0 {
			return ix.boxCluster[w*64+bits.TrailingZeros64(word)]
		}
	}
	return -1
}
