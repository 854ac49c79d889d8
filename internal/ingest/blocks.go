package ingest

import (
	"slices"

	"pmafia/internal/dataset"
)

// blockRecords is the capacity of one block of the record buffer. It is
// mafia's default ChunkRecords, so every pass of a refit reads one block
// per chunk, and a multiple of the direct population kernel's 64-record
// block.
const blockRecords = 8192

// blocks is the ingester's record buffer and a dataset.Source over it:
// row-major records of d values in blocks of blockRecords records, every
// block but the last one full. A block is allocated at full capacity
// and filled in place, never copied or moved, so a copy of the block
// list (frozen) keeps seeing the same records while later adds fill the
// last block past them and start new ones.
type blocks struct {
	d    int
	list [][]float64
}

// add appends the row-major records of chunk, filling the last block and
// starting a new one whenever it is full.
func (b *blocks) add(chunk []float64) {
	for len(chunk) > 0 {
		last := len(b.list) - 1
		if last < 0 || len(b.list[last]) == cap(b.list[last]) {
			b.list = append(b.list, make([]float64, 0, blockRecords*b.d))
			last++
		}
		tail := b.list[last]
		k := min(len(chunk), cap(tail)-len(tail))
		b.list[last] = append(tail, chunk[:k]...)
		chunk = chunk[k:]
	}
}

// frozen returns a view of the records held now. Only its block headers
// are copied; later adds write past the records it holds, so it can be
// read without the lock that guards b.
func (b *blocks) frozen() *blocks {
	return &blocks{d: b.d, list: slices.Clone(b.list)}
}

// Dims implements dataset.Source.
func (b *blocks) Dims() int { return b.d }

// NumRecords implements dataset.Source.
func (b *blocks) NumRecords() int {
	if len(b.list) == 0 {
		return 0
	}
	return (len(b.list)-1)*blockRecords + len(b.list[len(b.list)-1])/b.d
}

// Scan implements dataset.Source: it hands out each block's records in
// place, in chunks of at most chunkRecords records that never span two
// blocks.
func (b *blocks) Scan(chunkRecords int) dataset.Scanner {
	return &blockScanner{list: b.list, d: b.d, step: max(chunkRecords, 1) * b.d}
}

type blockScanner struct {
	list    [][]float64 // blocks not yet fully handed out
	d, step int         // values per record and per chunk
	off     int         // values of list[0] already handed out
}

func (s *blockScanner) Next() ([]float64, int) {
	for len(s.list) > 0 {
		blk := s.list[0]
		if s.off < len(blk) {
			lo, hi := s.off, min(len(blk), s.off+s.step)
			s.off = hi
			// Capped at hi: an append to the chunk must not write into
			// records past it, which a later add may be filling.
			return blk[lo:hi:hi], (hi - lo) / s.d
		}
		s.list, s.off = s.list[1:], 0
	}
	return nil, 0
}

func (s *blockScanner) Err() error   { return nil }
func (s *blockScanner) Close() error { return nil }
