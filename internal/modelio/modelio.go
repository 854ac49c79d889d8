// Package modelio serializes a fitted clustering result (mafia.Result)
// to a versioned, checksummed binary model file, so a fit can be
// persisted once and served for assignment without re-clustering.
//
// The framing follows the diskio conventions: a magic + version
// header, little-endian encoding throughout, a CRC32C over the
// payload so silent bit-level corruption is detected instead of being
// served as a model, and atomic temp-file + rename writes (a crash
// never leaves a half-written model at the target path).
//
// Format, version 2:
//
//	magic       [4]byte  "PMFM"
//	version     uint32   2
//	length      uint64   payload byte count
//	crc         uint32   CRC32C (Castagnoli) of the payload
//	generation  uint64   monotonic refit counter (0 = unversioned)
//	fingerprint uint64   FNV-64a of the payload
//	payload length bytes:
//	  records  uint64            Result.N
//	  seconds  float64           Result.Seconds
//	  dims     uint32, then per dimension:
//	    index uint32, domain lo/hi float64, uniform uint8,
//	    fineUnits uint32, bins uint32, then per bin:
//	      bounds lo/hi float64, unitLo/unitHi uint32,
//	      count uint64, threshold float64
//	  levels   uint32, then per level:
//	    k/raw/unique/dense uint32, seconds/populateSeconds float64
//	  clusters uint32, then per cluster:
//	    k uint32, k×uint8 subspace dims,
//	    unitBytes uint32 + the unit array's byte encoding,
//	    boxes uint32, then per box k×uint8 binLo, k×uint8 binHi
//
// Version 1 files are the same payload behind a 20-byte header that
// stops at the crc field; readers accept both, reporting generation 0
// and a fingerprint computed from the payload for v1.
//
// The generation field orders refits of the same logical model: a
// streaming ingester bumps it on every background refit, and the
// serving daemon's hot-swap logic uses it (with the fingerprint) to
// tell a genuinely new model from a same-content rewrite. The
// fingerprint hashes the payload, so two files with equal fingerprints
// compile to identical assign indexes regardless of generation.
//
// The parallel machine's Report is runtime instrumentation, not model
// state, and is not serialized; a loaded Result carries a nil Report.
package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"

	"pmafia/internal/cluster"
	"pmafia/internal/dataset"
	"pmafia/internal/grid"
	"pmafia/internal/mafia"
	"pmafia/internal/unit"
)

const (
	magic   = "PMFM"
	Version = 2

	headerLenV1 = 4 + 4 + 8 + 4
	headerLenV2 = headerLenV1 + 8 + 8

	// maxPayload bounds the header's length field before anything is
	// allocated: a model is bins, thresholds, and DNF covers — a few
	// megabytes at the extreme — so a multi-gigabyte length is a
	// corrupt or hostile header.
	maxPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by every error reporting a malformed or
// checksum-failing model file.
var ErrCorrupt = errors.New("modelio: corrupt model")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Meta is the versioning header of a model file: which refit produced
// it and a content hash of its payload.
type Meta struct {
	Generation  uint64 // monotonic refit counter; 0 for v1 files
	Fingerprint uint64 // FNV-64a of the payload
}

// fingerprint hashes a payload the way the v2 header records it.
func fingerprint(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Write serializes res to w in the current format with generation 0.
func Write(w io.Writer, res *mafia.Result) error {
	return WriteMeta(w, res, 0)
}

// WriteMeta serializes res to w in the version-2 format, stamping the
// header with generation and the payload fingerprint.
func WriteMeta(w io.Writer, res *mafia.Result, generation uint64) error {
	if res == nil || res.Grid == nil {
		return errors.New("modelio: nil result or grid")
	}
	payload, err := encodePayload(res)
	if err != nil {
		return err
	}
	if _, err := w.Write(header(payload, generation)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// header builds the version-2 header of payload.
func header(payload []byte, generation uint64) []byte {
	hdr := make([]byte, headerLenV2)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(hdr[20:], generation)
	binary.LittleEndian.PutUint64(hdr[28:], fingerprint(payload))
	return hdr
}

// Read deserializes a model written by Write, verifying the checksum
// before decoding. Both header versions are accepted.
func Read(r io.Reader) (*mafia.Result, error) {
	res, _, err := ReadMeta(r)
	return res, err
}

// ReadMeta is Read plus the versioning header: generation and payload
// fingerprint. A v1 file reads as generation 0 with the fingerprint
// computed from its payload, so equal payloads fingerprint equally
// across versions.
func ReadMeta(r io.Reader) (*mafia.Result, Meta, error) {
	hdr := make([]byte, headerLenV1)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, Meta{}, corruptf("short header: %v", err)
	}
	if string(hdr[:4]) != magic {
		return nil, Meta{}, corruptf("bad magic %q", hdr[:4])
	}
	var meta Meta
	haveMeta := false
	switch v := binary.LittleEndian.Uint32(hdr[4:]); v {
	case 1:
	case 2:
		ext := make([]byte, headerLenV2-headerLenV1)
		if _, err := io.ReadFull(r, ext); err != nil {
			return nil, Meta{}, corruptf("short v2 header: %v", err)
		}
		meta.Generation = binary.LittleEndian.Uint64(ext[0:])
		meta.Fingerprint = binary.LittleEndian.Uint64(ext[8:])
		haveMeta = true
	default:
		return nil, Meta{}, fmt.Errorf("modelio: unsupported model version %d (this build reads %d)", v, Version)
	}
	length := binary.LittleEndian.Uint64(hdr[8:])
	if length > maxPayload {
		return nil, Meta{}, corruptf("payload length %d exceeds the %d cap", length, maxPayload)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, Meta{}, corruptf("short payload: %v", err)
	}
	want := binary.LittleEndian.Uint32(hdr[16:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, Meta{}, corruptf("payload checksum %08x, header says %08x", got, want)
	}
	if !haveMeta {
		meta.Fingerprint = fingerprint(payload)
	}
	res, err := decodePayload(payload)
	if err != nil {
		return nil, Meta{}, err
	}
	return res, meta, nil
}

// Save writes res to path atomically with generation 0: the model
// streams into a temp file in the same directory, is synced, and is
// renamed into place.
func Save(path string, res *mafia.Result) error {
	return SaveMeta(path, res, 0)
}

// SaveMeta is Save with an explicit generation stamped into the
// header. The rename is atomic, so a reader concurrently loading the
// path sees either the previous complete model or this one — never a
// mix.
func SaveMeta(path string, res *mafia.Result, generation uint64) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".model-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = WriteMeta(f, res, generation); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Load reads a model from path.
func Load(path string) (*mafia.Result, error) {
	res, _, err := LoadMeta(path)
	return res, err
}

// LoadMeta reads a model and its versioning header from path.
//
// The whole file is read into memory in a single pass before any of
// it is interpreted, so a concurrent atomic replacement of the path
// can never produce a torn decode (old header, new payload): the
// bytes decoded are the bytes of exactly one read. A file whose size
// disagrees with its header's payload length fails with ErrCorrupt.
func LoadMeta(path string) (*mafia.Result, Meta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Meta{}, err
	}
	if len(data) < headerLenV1 {
		return nil, Meta{}, corruptf("%s: short header: %d bytes", path, len(data))
	}
	if string(data[:4]) == magic {
		hdrLen := uint64(headerLenV1)
		if binary.LittleEndian.Uint32(data[4:]) == 2 {
			hdrLen = headerLenV2
		}
		length := binary.LittleEndian.Uint64(data[8:])
		if length <= maxPayload && length != uint64(len(data))-hdrLen {
			return nil, Meta{}, corruptf("%s: header says %d payload bytes, file holds %d", path, length, uint64(len(data))-hdrLen)
		}
	}
	res, meta, err := ReadMeta(bytes.NewReader(data))
	if err != nil {
		return nil, Meta{}, fmt.Errorf("%s: %w", path, err)
	}
	return res, meta, nil
}

// enc is a little-endian payload builder.
type enc struct{ buf bytes.Buffer }

func (e *enc) u8(v uint8)    { e.buf.WriteByte(v) }
func (e *enc) u32(v uint32)  { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); e.buf.Write(b[:]) }
func (e *enc) u64(v uint64)  { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); e.buf.Write(b[:]) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }

func encodePayload(res *mafia.Result) ([]byte, error) {
	var e enc
	e.u64(uint64(res.N))
	e.f64(res.Seconds)

	spec := res.Grid.Spec()
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

	e.u32(uint32(len(res.Levels)))
	for _, l := range res.Levels {
		e.u32(uint32(l.K))
		e.u32(uint32(l.NcduRaw))
		e.u32(uint32(l.Ncdu))
		e.u32(uint32(l.Ndu))
		e.f64(l.Seconds)
		e.f64(l.PopulateSeconds)
	}

	e.u32(uint32(len(res.Clusters)))
	for ci := range res.Clusters {
		c := &res.Clusters[ci]
		k := len(c.Dims)
		e.u32(uint32(k))
		for _, d := range c.Dims {
			e.u8(d)
		}
		var units []byte
		if c.Units != nil {
			if c.Units.K != k {
				return nil, fmt.Errorf("modelio: cluster %d: %d-dim units in a %d-dim subspace", ci, c.Units.K, k)
			}
			units = c.Units.Encode()
		}
		e.u32(uint32(len(units)))
		e.buf.Write(units)
		e.u32(uint32(len(c.Boxes)))
		for bi := range c.Boxes {
			b := &c.Boxes[bi]
			if len(b.BinLo) != k || len(b.BinHi) != k {
				return nil, fmt.Errorf("modelio: cluster %d box %d spans %d dims, subspace has %d", ci, bi, len(b.BinLo), k)
			}
			for x := 0; x < k; x++ {
				e.u8(b.BinLo[x])
			}
			for x := 0; x < k; x++ {
				e.u8(b.BinHi[x])
			}
		}
	}
	return e.buf.Bytes(), nil
}

// dec is a bounds-checked little-endian payload cursor; the first
// out-of-bounds read latches err and subsequent reads return zero.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = corruptf("payload truncated at byte %d (want %d more)", d.off, n)
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
// fit in the remaining payload at minBytes bytes per element. A
// rejected count reads as 0, so callers may size allocations by it.
func (d *dec) count(minBytes int) int {
	n := int(d.u32())
	// int64 math: on 32-bit platforms a hostile count times minBytes
	// can wrap negative in int and slip past the guard.
	if d.err == nil && int64(n)*int64(minBytes) > int64(len(d.buf)-d.off) {
		d.err = corruptf("element count %d at byte %d exceeds the remaining payload", n, d.off-4)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func decodePayload(payload []byte) (*mafia.Result, error) {
	d := &dec{buf: payload}
	res := &mafia.Result{
		N:       int(d.u64()),
		Seconds: d.f64(),
	}

	ndims := d.count(29) // fixed dim header
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
	if d.err != nil {
		return nil, d.err
	}
	g, err := grid.FromBins(specs, int64(res.N))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	res.Grid = g

	nlevels := d.count(32)
	for i := 0; i < nlevels && d.err == nil; i++ {
		res.Levels = append(res.Levels, mafia.LevelStats{
			K:               int(d.u32()),
			NcduRaw:         int(d.u32()),
			Ncdu:            int(d.u32()),
			Ndu:             int(d.u32()),
			Seconds:         d.f64(),
			PopulateSeconds: d.f64(),
		})
	}

	nclusters := d.count(12)
	for ci := 0; ci < nclusters && d.err == nil; ci++ {
		k := d.count(1)
		if d.err == nil && (k < 1 || k > len(res.Grid.Dims)) {
			return nil, corruptf("cluster %d: subspace of %d dims in a %d-dim grid", ci, k, len(res.Grid.Dims))
		}
		c := cluster.Cluster{Dims: append([]uint8(nil), d.take(k)...)}
		nunits := d.count(1)
		if ub := d.take(nunits); d.err == nil && nunits > 0 {
			c.Units, err = unit.Decode(k, ub)
			if err != nil {
				return nil, fmt.Errorf("%w: cluster %d units: %v", ErrCorrupt, ci, err)
			}
		}
		nboxes := d.count(2 * k)
		for bi := 0; bi < nboxes && d.err == nil; bi++ {
			c.Boxes = append(c.Boxes, cluster.Box{
				BinLo: append([]uint8(nil), d.take(k)...),
				BinHi: append([]uint8(nil), d.take(k)...),
			})
		}
		if d.err == nil {
			res.Clusters = append(res.Clusters, c)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, corruptf("%d trailing bytes after the model", len(d.buf)-d.off)
	}
	return res, nil
}
