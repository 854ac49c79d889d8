// Package ckpt persists the engine's level-barrier snapshots
// (mafia.Snapshot) as versioned, CRC32C-framed checkpoint files and
// manages a directory of them, so a crashed fit can resume from the
// last good level instead of starting over.
//
// The encoding follows the diskio/modelio conventions: a magic +
// version header, little-endian fields throughout, and atomic
// temp-file + rename writes. Unlike the single-checksum model format,
// a checkpoint is a sequence of independently checksummed frames —
// meta, grid, histogram, levels, units — so torn or bit-flipped files
// are rejected frame by frame without decoding past the damage.
//
// Format, version 1:
//
//	magic   [4]byte  "PMCK"
//	version uint32   1
//	frames  uint32   5
//	then per frame:
//	  length uint32  frame payload byte count
//	  crc    uint32  CRC32C (Castagnoli) of the frame payload
//	  payload length bytes
//
// Frame 0 (meta): fingerprint pathLen uint32 + path bytes,
// dataBytes uint64, configHash uint64, then level uint32, records
// uint64. Frame 1 (grid): the modelio dimension/bin layout. Frame 2
// (histogram): units uint32, dims uint32 with per-dim domain lo/hi
// float64, flat count uint32 + that many int64. Frame 3 (levels): the
// modelio per-level layout. Frame 4 (units): the dense-unit array (k
// uint32, bytes uint32 + unit encoding) then the registered sets
// (count uint32, each k uint32 + bytes uint32 + unit encoding).
//
// A checkpoint embeds a Fingerprint of the run that wrote it (dataset
// path + size + a hash of the result-determining Config fields); a
// loader presenting a different fingerprint gets ErrStale, so a
// checkpoint never resumes a different data set or configuration.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"

	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/mafia"
	"pmafia/internal/unit"
)

const (
	magic = "PMCK"
	// Version is the checkpoint format version this build reads and
	// writes.
	Version = 1

	headerLen = 4 + 4 + 4
	numFrames = 5
	frameHdr  = 4 + 4

	// maxFrame bounds a frame's declared length before any allocation:
	// a checkpoint holds a grid, a histogram, and unit arrays — tens of
	// megabytes at the extreme — so a gigabyte frame is corrupt.
	maxFrame = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel errors for checkpoint loading. ErrCorrupt wraps every
// malformed-bytes failure; ErrStale marks a structurally valid
// checkpoint written by a different run (data set or config mismatch).
var (
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
	ErrStale   = errors.New("ckpt: stale checkpoint")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Fingerprint identifies the run a checkpoint belongs to. Two runs
// match when they fit the same dataset file (path and byte size) under
// a Config whose result-determining fields hash equal.
type Fingerprint struct {
	// DataPath is the dataset file the fit reads (absolute paths
	// recommended — the comparison is textual).
	DataPath string
	// DataBytes is the dataset file's size in bytes.
	DataBytes int64
	// ConfigHash is ConfigHash() over the run's Config.
	ConfigHash uint64
}

// ConfigHash hashes the Config fields that determine the fit's result
// (grid construction, thresholds, level cap) after filling defaults,
// so an explicitly-defaulted and an unset Config hash equal. Custom
// Join and Prune functions are not hashable and are excluded: runs
// that differ only in those must use distinct checkpoint directories.
func ConfigHash(cfg mafia.Config, dims int) (uint64, error) {
	if err := cfg.Validate(dims); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	wf := func(v float64) { w64(math.Float64bits(v)) }
	w64(uint64(dims))
	w64(uint64(cfg.Grid))
	w64(uint64(cfg.Adaptive.WindowUnits))
	wf(cfg.Adaptive.BetaPercent)
	wf(cfg.Adaptive.Alpha)
	w64(uint64(cfg.Adaptive.EquiSplit))
	wf(cfg.Adaptive.UniformBoost)
	w64(uint64(cfg.UniformBins))
	w64(uint64(len(cfg.UniformBinsPerDim)))
	for _, xi := range cfg.UniformBinsPerDim {
		w64(uint64(xi))
	}
	wf(cfg.UniformTau)
	w64(uint64(cfg.FineUnits))
	w64(uint64(cfg.MaxLevels))
	return h.Sum64(), nil
}

// Encode serializes a snapshot and its fingerprint into the version-1
// checkpoint byte format.
func Encode(snap *mafia.Snapshot, fp Fingerprint) ([]byte, error) {
	if snap == nil || snap.Grid == nil || snap.DU == nil {
		return nil, errors.New("ckpt: nil snapshot, grid, or dense units")
	}
	frames := [numFrames][]byte{
		encodeMeta(snap, fp),
		encodeGrid(snap.Grid),
		encodeHist(snap),
		encodeLevels(snap.Levels),
		encodeUnits(snap),
	}
	var buf bytes.Buffer
	hdr := make([]byte, headerLen)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint32(hdr[8:], numFrames)
	buf.Write(hdr)
	var fh [frameHdr]byte
	for _, f := range frames {
		binary.LittleEndian.PutUint32(fh[:4], uint32(len(f)))
		binary.LittleEndian.PutUint32(fh[4:], crc32.Checksum(f, castagnoli))
		buf.Write(fh[:])
		buf.Write(f)
	}
	return buf.Bytes(), nil
}

// Decode parses checkpoint bytes, verifying every frame checksum, and
// returns the snapshot with the fingerprint of the run that wrote it.
// Any malformed input yields an error wrapping ErrCorrupt — never a
// panic (the package fuzz target enforces this).
func Decode(data []byte) (*mafia.Snapshot, Fingerprint, error) {
	var fp Fingerprint
	if len(data) < headerLen {
		return nil, fp, corruptf("short header: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fp, corruptf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fp, fmt.Errorf("ckpt: unsupported checkpoint version %d (this build reads %d)", v, Version)
	}
	if n := binary.LittleEndian.Uint32(data[8:]); n != numFrames {
		return nil, fp, corruptf("%d frames, want %d", n, numFrames)
	}
	var frames [numFrames][]byte
	off := headerLen
	for i := range frames {
		if off+frameHdr > len(data) {
			return nil, fp, corruptf("frame %d header truncated at byte %d", i, off)
		}
		length := binary.LittleEndian.Uint32(data[off:])
		want := binary.LittleEndian.Uint32(data[off+4:])
		off += frameHdr
		if length > maxFrame || off+int(length) > len(data) {
			return nil, fp, corruptf("frame %d of %d bytes truncated at byte %d", i, length, off)
		}
		frames[i] = data[off : off+int(length)]
		off += int(length)
		if got := crc32.Checksum(frames[i], castagnoli); got != want {
			return nil, fp, corruptf("frame %d checksum %08x, header says %08x", i, got, want)
		}
	}
	if off != len(data) {
		return nil, fp, corruptf("%d trailing bytes after frame %d", len(data)-off, numFrames-1)
	}

	snap := &mafia.Snapshot{}
	var err error
	if fp, err = decodeMeta(frames[0], snap); err != nil {
		return nil, fp, err
	}
	if snap.Grid, err = decodeGrid(frames[1], snap.N); err != nil {
		return nil, fp, err
	}
	if err = decodeHist(frames[2], snap); err != nil {
		return nil, fp, err
	}
	if snap.Levels, err = decodeLevels(frames[3]); err != nil {
		return nil, fp, err
	}
	if err = decodeUnits(frames[4], snap); err != nil {
		return nil, fp, err
	}
	if err = snap.Validate(len(snap.Grid.Dims)); err != nil {
		return nil, fp, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, fp, nil
}

func encodeMeta(snap *mafia.Snapshot, fp Fingerprint) []byte {
	var e enc
	e.u32(uint32(len(fp.DataPath)))
	e.buf.WriteString(fp.DataPath)
	e.u64(uint64(fp.DataBytes))
	e.u64(fp.ConfigHash)
	e.u32(uint32(snap.Level))
	e.u64(uint64(snap.N))
	return e.buf.Bytes()
}

func decodeMeta(frame []byte, snap *mafia.Snapshot) (Fingerprint, error) {
	d := &dec{buf: frame, frame: "meta"}
	var fp Fingerprint
	fp.DataPath = string(d.take(d.count(1)))
	fp.DataBytes = int64(d.u64())
	fp.ConfigHash = d.u64()
	snap.Level = int(d.u32())
	snap.N = int(d.u64())
	if err := d.finish(); err != nil {
		return fp, err
	}
	if snap.Level < 1 || snap.N < 1 {
		return fp, corruptf("meta frame: level %d, %d records", snap.Level, snap.N)
	}
	return fp, nil
}

func encodeGrid(g *grid.Grid) []byte {
	var e enc
	spec := g.Spec()
	e.u32(uint32(len(spec)))
	for _, d := range spec {
		e.u32(uint32(d.Index))
		e.f64(d.Domain.Lo)
		e.f64(d.Domain.Hi)
		if d.Uniform {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(uint32(d.FineUnits))
		e.u32(uint32(len(d.Bins)))
		for _, b := range d.Bins {
			e.f64(b.Bounds.Lo)
			e.f64(b.Bounds.Hi)
			e.u32(uint32(b.UnitLo))
			e.u32(uint32(b.UnitHi))
			e.u64(uint64(b.Count))
			e.f64(b.Threshold)
		}
	}
	return e.buf.Bytes()
}

func decodeGrid(frame []byte, n int) (*grid.Grid, error) {
	d := &dec{buf: frame, frame: "grid"}
	ndims := d.count(29)
	specs := make([]grid.DimSpec, 0, ndims)
	for i := 0; i < ndims && d.err == nil; i++ {
		s := grid.DimSpec{
			Index:     int(d.u32()),
			Domain:    dataset.Range{Lo: d.f64(), Hi: d.f64()},
			Uniform:   d.u8() != 0,
			FineUnits: int(d.u32()),
		}
		nbins := d.count(40)
		s.Bins = make([]grid.Bin, 0, nbins)
		for b := 0; b < nbins && d.err == nil; b++ {
			s.Bins = append(s.Bins, grid.Bin{
				Bounds:    dataset.Range{Lo: d.f64(), Hi: d.f64()},
				UnitLo:    int(d.u32()),
				UnitHi:    int(d.u32()),
				Count:     int64(d.u64()),
				Threshold: d.f64(),
			})
		}
		specs = append(specs, s)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	g, err := grid.FromBins(specs, int64(n))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return g, nil
}

func encodeHist(snap *mafia.Snapshot) []byte {
	var e enc
	e.u32(uint32(snap.HistUnits))
	e.u32(uint32(len(snap.HistDomains)))
	for _, r := range snap.HistDomains {
		e.f64(r.Lo)
		e.f64(r.Hi)
	}
	e.u32(uint32(len(snap.HistFlat)))
	for _, v := range snap.HistFlat {
		e.u64(uint64(v))
	}
	return e.buf.Bytes()
}

func decodeHist(frame []byte, snap *mafia.Snapshot) error {
	d := &dec{buf: frame, frame: "histogram"}
	snap.HistUnits = int(d.u32())
	ndoms := d.count(16)
	snap.HistDomains = make([]dataset.Range, 0, ndoms)
	for i := 0; i < ndoms && d.err == nil; i++ {
		snap.HistDomains = append(snap.HistDomains, dataset.Range{Lo: d.f64(), Hi: d.f64()})
	}
	nflat := d.count(8)
	snap.HistFlat = make([]int64, 0, nflat)
	for i := 0; i < nflat && d.err == nil; i++ {
		snap.HistFlat = append(snap.HistFlat, int64(d.u64()))
	}
	return d.finish()
}

func encodeLevels(levels []mafia.LevelStats) []byte {
	var e enc
	e.u32(uint32(len(levels)))
	for _, l := range levels {
		e.u32(uint32(l.K))
		e.u32(uint32(l.NcduRaw))
		e.u32(uint32(l.Ncdu))
		e.u32(uint32(l.Ndu))
		e.f64(l.Seconds)
		e.f64(l.PopulateSeconds)
	}
	return e.buf.Bytes()
}

func decodeLevels(frame []byte) ([]mafia.LevelStats, error) {
	d := &dec{buf: frame, frame: "levels"}
	nlevels := d.count(32)
	levels := make([]mafia.LevelStats, 0, nlevels)
	for i := 0; i < nlevels && d.err == nil; i++ {
		levels = append(levels, mafia.LevelStats{
			K:               int(d.u32()),
			NcduRaw:         int(d.u32()),
			Ncdu:            int(d.u32()),
			Ndu:             int(d.u32()),
			Seconds:         d.f64(),
			PopulateSeconds: d.f64(),
		})
	}
	return levels, d.finish()
}

func encodeUnits(snap *mafia.Snapshot) []byte {
	var e enc
	writeArray := func(a *unit.Array) {
		b := a.Encode()
		e.u32(uint32(a.K))
		e.u32(uint32(len(b)))
		e.buf.Write(b)
	}
	writeArray(snap.DU)
	e.u32(uint32(len(snap.Registered)))
	for _, r := range snap.Registered {
		writeArray(r)
	}
	return e.buf.Bytes()
}

func decodeUnits(frame []byte, snap *mafia.Snapshot) error {
	d := &dec{buf: frame, frame: "units"}
	readArray := func() *unit.Array {
		k := int(d.u32())
		b := d.take(d.count(1))
		if d.err != nil {
			return nil
		}
		if k < 1 || k > 255 {
			d.err = corruptf("units frame: %d-dimensional unit array", k)
			return nil
		}
		a, err := unit.Decode(k, b)
		if err != nil {
			d.err = fmt.Errorf("%w: units frame: %v", ErrCorrupt, err)
			return nil
		}
		return a
	}
	snap.DU = readArray()
	nreg := d.count(8)
	snap.Registered = make([]*unit.Array, 0, nreg)
	for i := 0; i < nreg && d.err == nil; i++ {
		if a := readArray(); a != nil {
			snap.Registered = append(snap.Registered, a)
		}
	}
	return d.finish()
}

// enc is a little-endian frame builder.
type enc struct{ buf bytes.Buffer }

func (e *enc) u8(v uint8)    { e.buf.WriteByte(v) }
func (e *enc) u32(v uint32)  { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); e.buf.Write(b[:]) }
func (e *enc) u64(v uint64)  { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); e.buf.Write(b[:]) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

// dec is a bounds-checked little-endian frame cursor; the first
// out-of-bounds read latches err and subsequent reads return zero.
type dec struct {
	buf   []byte
	off   int
	err   error
	frame string
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = corruptf("%s frame truncated at byte %d (want %d more)", d.frame, d.off, n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

// count reads a u32 element count and rejects values that could not
// fit in the remaining frame at minBytes bytes per element. A rejected
// count reads as 0, so callers may size allocations by it.
func (d *dec) count(minBytes int) int {
	n := int(d.u32())
	if d.err == nil && int64(n)*int64(minBytes) > int64(len(d.buf)-d.off) {
		d.err = corruptf("%s frame: element count %d at byte %d exceeds the remaining frame", d.frame, n, d.off-4)
	}
	if d.err != nil {
		return 0
	}
	return n
}

// finish returns the latched error, or flags trailing garbage.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return corruptf("%s frame has %d trailing bytes", d.frame, len(d.buf)-d.off)
	}
	return nil
}
