package mafia

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"pmafia/internal/dataset"
	"pmafia/internal/obs"
	"pmafia/internal/pool"
)

// castagnoli is the CRC32C table of the binned copy's frames, the
// checksum diskio v2 files use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCopyUnreadable wraps every failed read or checksum of a binned
// copy frame: the copy is dropped and the level counted from the shard.
var errCopyUnreadable = errors.New("mafia: binned copy unreadable")

// binnedCopy is one rank's binned copy of its shard. The first direct
// population pass of a run writes it: for every 64-record block, the
// record mask of each atom that pass's CDUs use (junk slot excluded),
// one frame per chunk, to a private scratch file under os.TempDir().
// The frames' CRC32Cs stay in memory. Atoms only shrink from level to
// level — a level-k CDU joins two dense level-(k-1) units, and pruning
// only removes units — so every later direct pass finds its atoms in
// the copy and counts by AND and popcount alone, reading no record and
// binning nothing. The file is unlinked as soon as it is created where
// the system allows it, and closed (removed otherwise) on every exit
// path of the rank.
type binnedCopy struct {
	f       *os.File
	path    string     // set only while the file still has a name
	atomOf  [][]uint16 // per dim: bin -> 1 + slot, 0 = not stored
	stride  int        // bytes per block: 8 per slot
	buf     []byte     // one frame: the writer's staging, the reader's buffer
	frames  []copyFrame
	records int64
	err     error // first write error; the copy is dropped after the pass
}

// copyFrame is one chunk's frame: blocks × stride bytes, block-major,
// each block its slots' masks as little-endian uint64s.
type copyFrame struct {
	blocks int
	crc    uint32
}

// newBinnedCopy creates the scratch file for a copy of c's atoms,
// staging frames of up to chunkRecords records. It returns nil when the
// file cannot be created; the run then keeps its raw passes.
func newBinnedCopy(c *counter, chunkRecords int) *binnedCopy {
	f, err := os.CreateTemp("", "pmafia-binned-*")
	if err != nil {
		return nil
	}
	bc := &binnedCopy{f: f, atomOf: c.atomIDs, stride: 8 * (c.atoms - 1)}
	if os.Remove(f.Name()) != nil {
		bc.path = f.Name()
	}
	frameBlocks := (max(chunkRecords, 1) + blockRecords - 1) / blockRecords
	bc.buf = make([]byte, frameBlocks*bc.stride)
	return bc
}

// storeMasks writes masks little-endian at the start of frame and
// returns the rest of frame.
func storeMasks(frame []byte, masks []uint64) []byte {
	for _, m := range masks {
		binary.LittleEndian.PutUint64(frame, m)
		frame = frame[8:]
	}
	return frame
}

// writeFrame appends the staged frame of a chunk of n records to the
// file and keeps its checksum. After a failed write it only counts.
func (bc *binnedCopy) writeFrame(n int) {
	bc.records += int64(n)
	if bc.err != nil {
		return
	}
	blocks := (n + blockRecords - 1) / blockRecords
	data := bc.buf[:blocks*bc.stride]
	if _, err := bc.f.Write(data); err != nil {
		bc.err = err
		return
	}
	bc.frames = append(bc.frames, copyFrame{blocks: blocks, crc: crc32.Checksum(data, castagnoli)})
}

// close releases the copy's file.
func (bc *binnedCopy) close() {
	bc.f.Close()
	if bc.path != "" {
		os.Remove(bc.path)
	}
}

// slotsFor maps c's atoms to the copy: the byte offset within a block
// of atom id a's mask, for a from 1 (slot 0 is the junk atom, never
// stored and never read). An atom the copy lacks is a bug, since atoms
// only shrink over a run.
func (bc *binnedCopy) slotsFor(c *counter) ([]int, error) {
	offs := make([]int, c.atoms)
	for dim, ids := range c.atomIDs {
		for bin, id := range ids {
			if id == 0 {
				continue
			}
			var s uint16
			if dim < len(bc.atomOf) && bc.atomOf[dim] != nil {
				s = bc.atomOf[dim][bin]
			}
			if s == 0 {
				return nil, fmt.Errorf("mafia: atom (dim %d, bin %d) of a level-%d CDU is not in the binned copy", dim, bin, c.cdus.K)
			}
			offs[id] = 8 * (int(s) - 1)
		}
	}
	return offs, nil
}

// countCopy counts the rank's shard from bc: every frame is read and
// checked against its CRC32C, and its blocks are sharded across
// workers, which load the masks of c's atoms and tally them exactly as
// the raw pass does. A read error or checksum mismatch returns an error
// wrapping errCopyUnreadable with c's tallies cleared. Returns the
// wall-clock time of the merge.
func (c *counter) countCopy(bc *binnedCopy, workers int) (mergeSeconds float64, err error) {
	offs, err := bc.slotsFor(c)
	if err != nil {
		return 0, err
	}
	s := c.scratches(workers)
	var frame []byte
	var off int64
	next := 0
	pool.Run(workers, 1, func() int {
		if err != nil || next == len(bc.frames) {
			return 0
		}
		fr := bc.frames[next]
		frame = bc.buf[:fr.blocks*bc.stride]
		if _, rerr := bc.f.ReadAt(frame, off); rerr != nil {
			err = fmt.Errorf("%w: frame %d: %v", errCopyUnreadable, next, rerr)
			return 0
		}
		if got := crc32.Checksum(frame, castagnoli); got != fr.crc {
			err = fmt.Errorf("%w: frame %d: crc %08x, want %08x", errCopyUnreadable, next, got, fr.crc)
			return 0
		}
		off += int64(len(frame))
		next++
		return fr.blocks
	}, func(w, lo, hi int) {
		sc := &s[w]
		for b := lo; b < hi; b++ {
			blk := frame[b*bc.stride : (b+1)*bc.stride]
			for a := 1; a < len(offs); a++ {
				sc.masks[a] = binary.LittleEndian.Uint64(blk[offs[a]:])
			}
			c.tallyBlock(sc)
		}
	}, nil)
	if err != nil {
		for w := range s {
			clear(s[w].counts)
		}
		return 0, err
	}
	c.records += bc.records
	return c.merge(s), nil
}

// populator runs one rank's population passes over its shard. Grouped
// levels scan the shard. The first direct pass of a run scans it and
// writes the binned copy; every later direct pass counts from the copy.
// If the copy cannot be created or written the run keeps raw passes;
// if a frame cannot be read back, diskio.corruptions counts it, the
// copy is dropped and the level is counted from the shard.
type populator struct {
	shard   dataset.Source
	chunk   int
	workers int
	rec     *obs.Recorder
	copy    *binnedCopy
	tried   bool // the first direct pass has run
}

// count fills c's tallies over the shard and returns the worker-pool
// merge time.
func (p *populator) count(c *counter) (mergeSeconds float64, err error) {
	if c.strategy != CountDirect {
		return c.scan(p.shard, p.chunk, p.workers, nil)
	}
	if p.copy != nil {
		sec, err := c.countCopy(p.copy, p.workers)
		if !errors.Is(err, errCopyUnreadable) {
			return sec, err
		}
		p.rec.AddGlobal(obs.CtrDiskCorruptions, 1)
		p.drop()
		return c.scan(p.shard, p.chunk, p.workers, nil)
	}
	var out *binnedCopy
	if !p.tried {
		p.tried = true
		out = newBinnedCopy(c, p.chunk)
	}
	sec, err := c.scan(p.shard, p.chunk, p.workers, out)
	if out != nil {
		if err == nil && out.err == nil {
			p.copy = out
		} else {
			out.close()
		}
	}
	return sec, err
}

// drop releases the copy, if any; later direct passes scan the shard.
func (p *populator) drop() {
	if p.copy != nil {
		p.copy.close()
		p.copy = nil
	}
}
