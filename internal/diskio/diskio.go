// Package diskio implements the disk substrate pMAFIA runs on: a binary
// record-file format, buffered chunked scanning of B records at a time
// (so data sets never need to fit in memory), and staging of a shared
// data set onto per-processor local stores, mirroring the paper's IBM
// SP2 setup where each node copies its N/p share from the shared disk to
// its local disk before the k passes of the algorithm.
//
// The substrate is hardened against the failures the paper assumes
// away: headers are validated against the actual file size before
// anything is allocated or read, writers stream into a temp file that
// is atomically renamed into place on Close (a crash never leaves a
// half-written file at the target path), chunk reads retry transient
// errors with exponential backoff, and the v2 format carries a CRC32C
// checksum per frame of records so silent bit-level corruption is
// detected instead of being clustered as data. Deterministic failures
// can be injected through a faults.Plan (see SetFaults).
package diskio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pmafia/internal/dataset"
	"pmafia/internal/faults"
	"pmafia/internal/obs"
)

// Format: little-endian throughout.
//
// Version 1 (legacy, still readable):
//
//	magic   [4]byte  "PMAF"
//	version uint32   1
//	dims    uint32
//	records uint64
//	domains dims × (lo float64, hi float64)
//	data    records × dims × float64 (row-major)
//
// Version 2 (written by Create) appends a frameRecords field to the
// fixed header and a checksum table after the data section:
//
//	magic    [4]byte  "PMAF"
//	version  uint32   2
//	dims     uint32
//	records  uint64
//	frameRecords uint32      records per checksum frame
//	domains  dims × (lo float64, hi float64)
//	data     records × dims × float64 (row-major)
//	crcs     ceil(records/frameRecords) × uint32   CRC32C per frame
//
// A frame is frameRecords consecutive records (the last frame may be
// shorter); its checksum covers the frame's raw data bytes. Sequential
// scans verify every frame they fully traverse; a ScanRange that starts
// mid-frame verifies from the first frame boundary it crosses, and one
// that ends mid-frame reads the rest of that frame to verify it.
const (
	magic          = "PMAF"
	version1       = 1
	version2       = 2
	headerFixedV1  = 4 + 4 + 4 + 8
	headerFixedV2  = headerFixedV1 + 4
	currentVersion = version2

	// DefaultFrameRecords is the checksum-frame size Create uses: 4096
	// records per CRC32C frame keeps the table below 0.01% of the data.
	DefaultFrameRecords = 4096

	// maxDims bounds the header's dimensionality field. The engine's
	// unit arrays index dimensions with uint8 and the paper evaluates up
	// to 100 dimensions; anything near the uint32 limit is a corrupt or
	// hostile header, rejected before allocating the domain table.
	maxDims = 1 << 16

	defaultMaxRetries = 3
	defaultBackoff    = 2 * time.Millisecond
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum v2 frames use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChunkError reports a chunk read that still failed after the retry
// budget was exhausted. It names the chunk so a failing run can be
// reproduced with an injected fault at the same index.
type ChunkError struct {
	// Path is the record file being read.
	Path string
	// Chunk is the scanner's 0-based chunk ordinal.
	Chunk int64
	// RecLo and RecHi delimit the records [RecLo, RecHi) of the chunk.
	RecLo, RecHi int
	// Attempts is how many times the read was tried.
	Attempts int
	// Err is the last error observed.
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("diskio: %s: chunk %d (records [%d,%d)) failed after %d attempt(s): %v",
		e.Path, e.Chunk, e.RecLo, e.RecHi, e.Attempts, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// ErrCorrupt is wrapped by every CorruptionError.
var ErrCorrupt = errors.New("diskio: checksum mismatch (data corruption)")

// CorruptionError reports a v2 checksum frame whose stored CRC32C does
// not match the bytes read — silent corruption (e.g. a flipped bit)
// that a v1 file would have served as garbage data.
type CorruptionError struct {
	// Path is the record file being read.
	Path string
	// Frame is the 0-based checksum frame index.
	Frame int
	// RecLo and RecHi delimit the frame's records [RecLo, RecHi).
	RecLo, RecHi int
	// Want is the stored checksum, Got the checksum of the bytes read.
	Want, Got uint32
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("diskio: %s: frame %d (records [%d,%d)): stored CRC32C %08x, read %08x: %v",
		e.Path, e.Frame, e.RecLo, e.RecHi, e.Want, e.Got, ErrCorrupt)
}

func (e *CorruptionError) Unwrap() error { return ErrCorrupt }

// Writer streams records into a new record file (format version 2).
// Data is written to a temporary sibling file and atomically renamed to
// the target path when Close succeeds, so the target either holds the
// previous complete file or the new complete file — never a torn write.
// Domains and per-frame checksums are tracked incrementally and written
// out on Close.
type Writer struct {
	f         *os.File
	bw        *bufio.Writer
	d         int
	n         uint64
	lo        []float64
	hi        []float64
	buf       []byte
	path      string // final path, created by Close's rename
	tmp       string // temp path holding the bytes until then
	frameRecs int
	frameLeft int
	crc       uint32
	crcs      []uint32
	done      bool
}

// Create opens path for writing a d-dimensional record file with the
// default checksum-frame size. The previous file at path, if any, stays
// intact until Close renames the finished file over it.
func Create(path string, d int) (*Writer, error) {
	return CreateWithFrames(path, d, DefaultFrameRecords)
}

// CreateWithFrames is Create with an explicit checksum-frame size in
// records (smaller frames detect corruption at finer granularity at the
// cost of a larger table).
func CreateWithFrames(path string, d, frameRecords int) (*Writer, error) {
	if d <= 0 || d > maxDims {
		return nil, fmt.Errorf("diskio: invalid dimensionality %d", d)
	}
	if frameRecords <= 0 {
		return nil, fmt.Errorf("diskio: invalid checksum frame size %d", frameRecords)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f:         f,
		bw:        bufio.NewWriterSize(f, 1<<20),
		d:         d,
		lo:        make([]float64, d),
		hi:        make([]float64, d),
		buf:       make([]byte, 8*d),
		path:      path,
		tmp:       tmp,
		frameRecs: frameRecords,
		frameLeft: frameRecords,
	}
	for i := 0; i < d; i++ {
		w.lo[i] = math.Inf(1)
		w.hi[i] = math.Inf(-1)
	}
	// Reserve header space with an advancing write so the buffered data
	// stream starts after it; the real header is written on Close.
	if _, err := f.Write(make([]byte, headerFixedV2+16*d)); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return w, nil
}

func (w *Writer) writeHeader() error {
	hdr := make([]byte, headerFixedV2+16*w.d)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[4:], currentVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(w.d))
	binary.LittleEndian.PutUint64(hdr[12:], w.n)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(w.frameRecs))
	for i := 0; i < w.d; i++ {
		lo, hi := w.lo[i], w.hi[i]
		if lo > hi { // no records observed and no domains injected
			lo, hi = 0, 1
		}
		binary.LittleEndian.PutUint64(hdr[headerFixedV2+16*i:], math.Float64bits(lo))
		binary.LittleEndian.PutUint64(hdr[headerFixedV2+16*i+8:], math.Float64bits(hi))
	}
	_, err := w.f.WriteAt(hdr, 0)
	return err
}

// Append writes one record, which must have exactly d values.
func (w *Writer) Append(rec []float64) error {
	if len(rec) != w.d {
		return fmt.Errorf("diskio: record width %d, want %d", len(rec), w.d)
	}
	for i, v := range rec {
		if v < w.lo[i] {
			w.lo[i] = v
		}
		if v > w.hi[i] {
			w.hi[i] = v
		}
		binary.LittleEndian.PutUint64(w.buf[8*i:], math.Float64bits(v))
	}
	w.n++
	w.crc = crc32.Update(w.crc, castagnoli, w.buf)
	if w.frameLeft--; w.frameLeft == 0 {
		w.crcs = append(w.crcs, w.crc)
		w.crc = 0
		w.frameLeft = w.frameRecs
	}
	_, err := w.bw.Write(w.buf)
	return err
}

// AppendChunk writes n records from a row-major chunk.
func (w *Writer) AppendChunk(chunk []float64, n int) error {
	for r := 0; r < n; r++ {
		if err := w.Append(chunk[r*w.d : (r+1)*w.d]); err != nil {
			return err
		}
	}
	return nil
}

// NumRecords returns the number of records appended so far.
func (w *Writer) NumRecords() int { return int(w.n) }

// Abort discards the writer: the temp file is removed and the target
// path is left untouched. Calling Abort after Close (or Close after
// Abort) is a no-op.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()
	os.Remove(w.tmp)
}

// Close flushes buffered data, appends the checksum table, finalizes
// the header, syncs, and atomically renames the finished file onto the
// target path. On any failure the temp file is removed and the target
// path keeps its previous contents.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	w.done = true
	fail := func(err error) error {
		w.f.Close()
		os.Remove(w.tmp)
		return err
	}
	if w.frameLeft < w.frameRecs { // partial final frame
		w.crcs = append(w.crcs, w.crc)
	}
	var crcBuf [4]byte
	for _, c := range w.crcs {
		binary.LittleEndian.PutUint32(crcBuf[:], c)
		if _, err := w.bw.Write(crcBuf[:]); err != nil {
			return fail(err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		return fail(err)
	}
	if err := w.writeHeader(); err != nil {
		return fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return fail(err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return err
	}
	return nil
}

// WriteSource copies every record of src into a new record file at
// path. On failure nothing is left at path.
func WriteSource(path string, src dataset.Source) error {
	w, err := Create(path, src.Dims())
	if err != nil {
		return err
	}
	sc := src.Scan(8192)
	defer sc.Close()
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		if err := w.AppendChunk(chunk, n); err != nil {
			w.Abort()
			return err
		}
	}
	if err := sc.Err(); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// Stats accumulates I/O counters for a File. Counters are atomic so
// concurrent scanners can share them.
type Stats struct {
	BytesRead int64
	Reads     int64
	// Retries counts chunk reads that were retried after a transient
	// failure; Corruptions counts checksum frames that failed
	// verification.
	Retries     int64
	Corruptions int64
}

// File is an opened record file; it implements dataset.Source with
// chunked reads, transparent retry of transient read errors, checksum
// verification (v2 files), and I/O statistics.
type File struct {
	path       string
	version    int
	d          int
	n          int
	frameRecs  int
	crcs       []uint32
	domains    []dataset.Range
	dataOff    int64
	stats      Stats
	rec        *obs.Recorder
	plan       *faults.Plan
	maxRetries int
	backoff    time.Duration
}

// SetRecorder attaches an observability recorder: every chunk read by
// any scanner opened after the call bumps the machine-global
// "diskio.chunks"/"diskio.bytes" counters, retries bump
// "diskio.retries", and detected corruptions bump "diskio.corruptions"
// (scanners may run on any rank, so the counters are rank-less). A nil
// recorder detaches.
func (f *File) SetRecorder(rec *obs.Recorder) { f.rec = rec }

// SetFaults attaches a fault-injection plan consulted on every chunk
// read by scanners opened after the call (see internal/faults). A nil
// plan detaches.
func (f *File) SetFaults(p *faults.Plan) { f.plan = p }

// SetRetryPolicy overrides the transient-read retry budget: up to
// maxRetries re-reads after the first failure, sleeping backoff,
// 2*backoff, 4*backoff, ... between attempts. The defaults are 3
// retries starting at 2ms. maxRetries 0 disables retrying.
func (f *File) SetRetryPolicy(maxRetries int, backoff time.Duration) {
	if maxRetries < 0 {
		maxRetries = 0
	}
	if backoff < 0 {
		backoff = 0
	}
	f.maxRetries = maxRetries
	f.backoff = backoff
}

// Open validates the header of the record file at path against the
// file's actual size — rejecting bad magic, unknown versions, zero or
// absurd dimensionalities, record counts that overflow or exceed the
// data present, and (v2) missing checksum tables — before anything is
// allocated or scanned. The file is reopened by each scanner, so a File
// may be scanned concurrently.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()

	var pre [8]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		return nil, fmt.Errorf("diskio: %s: short header: %w", path, err)
	}
	if string(pre[:4]) != magic {
		return nil, fmt.Errorf("diskio: %s: bad magic %q", path, pre[:4])
	}
	ver := int(binary.LittleEndian.Uint32(pre[4:]))
	var fixed int
	switch ver {
	case version1:
		fixed = headerFixedV1
	case version2:
		fixed = headerFixedV2
	default:
		return nil, fmt.Errorf("diskio: %s: unsupported version %d", path, ver)
	}
	rest := make([]byte, fixed-8)
	if _, err := io.ReadFull(f, rest); err != nil {
		return nil, fmt.Errorf("diskio: %s: short header: %w", path, err)
	}
	d := int(binary.LittleEndian.Uint32(rest[0:]))
	n := binary.LittleEndian.Uint64(rest[4:])
	if d <= 0 || d > maxDims {
		return nil, fmt.Errorf("diskio: %s: invalid dims %d (want 1..%d)", path, d, maxDims)
	}
	frameRecs := 0
	if ver == version2 {
		frameRecs = int(binary.LittleEndian.Uint32(rest[12:]))
		if frameRecs <= 0 {
			return nil, fmt.Errorf("diskio: %s: invalid checksum frame size %d", path, frameRecs)
		}
	}
	dataOff := int64(fixed + 16*d)
	if size < dataOff {
		return nil, fmt.Errorf("diskio: %s: truncated: size %d below header+domains %d", path, size, dataOff)
	}
	// Reject record counts whose data size overflows int64 — a crafted
	// or corrupt header would otherwise defeat the truncation check and
	// the file would be read as garbage.
	if n > uint64((math.MaxInt64-dataOff)/int64(8*d)) {
		return nil, fmt.Errorf("diskio: %s: record count %d overflows with %d dims", path, n, d)
	}
	dataBytes := int64(n) * int64(d) * 8
	var crcs []uint32
	switch ver {
	case version1:
		if want := dataOff + dataBytes; size < want {
			return nil, fmt.Errorf("diskio: %s: truncated: size %d, want %d", path, size, want)
		}
	case version2:
		frames := (int64(n) + int64(frameRecs) - 1) / int64(frameRecs)
		want := dataOff + dataBytes + 4*frames
		if size != want {
			return nil, fmt.Errorf("diskio: %s: size %d does not match header (want %d: %d records × %d dims + %d checksum frames)",
				path, size, want, n, d, frames)
		}
		crcs = make([]uint32, frames)
		tbl := make([]byte, 4*frames)
		if _, err := f.ReadAt(tbl, dataOff+dataBytes); err != nil {
			return nil, fmt.Errorf("diskio: %s: reading checksum table: %w", path, err)
		}
		for i := range crcs {
			crcs[i] = binary.LittleEndian.Uint32(tbl[4*i:])
		}
	}
	domBuf := make([]byte, 16*d)
	if _, err := f.ReadAt(domBuf, int64(fixed)); err != nil {
		return nil, fmt.Errorf("diskio: %s: short domain table: %w", path, err)
	}
	domains := make([]dataset.Range, d)
	for i := range domains {
		domains[i].Lo = math.Float64frombits(binary.LittleEndian.Uint64(domBuf[16*i:]))
		domains[i].Hi = math.Float64frombits(binary.LittleEndian.Uint64(domBuf[16*i+8:]))
	}
	return &File{
		path:       path,
		version:    ver,
		d:          d,
		n:          int(n),
		frameRecs:  frameRecs,
		crcs:       crcs,
		domains:    domains,
		dataOff:    dataOff,
		maxRetries: defaultMaxRetries,
		backoff:    defaultBackoff,
	}, nil
}

// Dims returns the dimensionality.
func (f *File) Dims() int { return f.d }

// NumRecords returns the record count.
func (f *File) NumRecords() int { return f.n }

// Path returns the file path.
func (f *File) Path() string { return f.path }

// Version returns the on-disk format version (1 or 2).
func (f *File) Version() int { return f.version }

// FrameRecords returns the checksum-frame size in records (0 for v1
// files, which carry no checksums).
func (f *File) FrameRecords() int { return f.frameRecs }

// Domains returns the per-dimension value ranges recorded in the
// header, widened so the observed maximum falls inside the half-open
// interval.
func (f *File) Domains() []dataset.Range {
	out := make([]dataset.Range, f.d)
	for i, r := range f.domains {
		out[i] = dataset.Widen(r)
	}
	return out
}

// StatsSnapshot returns the I/O counters accumulated by all scanners of
// this File.
func (f *File) StatsSnapshot() Stats {
	return Stats{
		BytesRead:   atomic.LoadInt64(&f.stats.BytesRead),
		Reads:       atomic.LoadInt64(&f.stats.Reads),
		Retries:     atomic.LoadInt64(&f.stats.Retries),
		Corruptions: atomic.LoadInt64(&f.stats.Corruptions),
	}
}

// Scan implements dataset.Source; each scanner opens its own descriptor
// so concurrent scans are safe.
func (f *File) Scan(chunkRecords int) dataset.Scanner {
	return f.ScanRange(0, f.n, chunkRecords)
}

// ScanRange returns a scanner over records [lo, hi), used by ranks that
// process a contiguous share of a shared file. On v2 files the scan
// verifies the checksum of every frame it fully traverses (a range
// starting mid-frame is verified from the next frame boundary on), and
// of the frame its range ends inside once it has checksummed that
// frame from its first record: the frame across a ShareBounds cut is
// verified by the rank whose share holds its head.
func (f *File) ScanRange(lo, hi, chunkRecords int) dataset.Scanner {
	if chunkRecords <= 0 {
		chunkRecords = 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi > f.n {
		hi = f.n
	}
	h, err := os.Open(f.path)
	if err != nil {
		return &fileScanner{err: err}
	}
	// One chunk, but no more records than the scan reads at once: the
	// range, or the frame tail verifyTail reads past it. Every read is
	// the same as with a whole chunk, so chunk ordinals do not change.
	chunkRecords = min(chunkRecords, max(hi-lo, f.tailRecords(lo, hi)))
	return &fileScanner{
		f:        f,
		h:        h,
		next:     lo,
		end:      hi,
		vals:     make([]float64, chunkRecords*f.d),
		chunkR:   chunkRecords,
		crcValid: f.version == version2 && f.frameRecs > 0 && lo%f.frameRecs == 0,
	}
}

// tailRecords is the number of records past hi that a scan of [lo, hi)
// reads to verify the frame it ends inside: the rest of that frame when
// the frame starts inside the range and hi is neither a frame boundary
// nor the end of the file, else 0.
func (f *File) tailRecords(lo, hi int) int {
	fr := f.frameRecs
	if f.version != version2 || fr <= 0 || hi%fr == 0 || hi >= f.n || hi/fr*fr < lo {
		return 0
	}
	return min(hi/fr*fr+fr, f.n) - hi
}

type fileScanner struct {
	f        *File
	h        *os.File
	next     int // next absolute record index to read
	end      int // absolute end of the scanned range
	vals     []float64
	chunkR   int
	chunkIdx int64
	crc      uint32 // running CRC32C of the current checksum frame
	crcValid bool   // false until the scan aligns with a frame boundary
	err      error
}

// Next reads the next chunk into the scanner's one buffer, verifies
// the checksum frames it crosses and only then decodes the values in
// place. At the end of the range it verifies the frame the range ends
// inside (see ScanRange). It returns (nil, 0) at the end of the range
// and on the first error (see Err).
func (s *fileScanner) Next() ([]float64, int) {
	if s.err != nil {
		return nil, 0
	}
	if s.next >= s.end {
		s.err = s.verifyTail()
		return nil, 0
	}
	n := min(s.chunkR, s.end-s.next)
	vals, err := s.load(n)
	if err != nil {
		s.err = err
		return nil, 0
	}
	dataset.FromLittleEndian(vals)
	return vals, n
}

// load reads records [next, next+n) into the scanner's buffer with
// retry, feeds them to the checksum of every frame they cross, and
// advances past them. The values are left in the file's byte order.
func (s *fileScanner) load(n int) ([]float64, error) {
	vals := s.vals[:n*s.f.d]
	b := dataset.Bytes(vals)
	if err := s.readChunk(b); err != nil {
		return nil, err
	}
	atomic.AddInt64(&s.f.stats.BytesRead, int64(len(b)))
	atomic.AddInt64(&s.f.stats.Reads, 1)
	if s.f.rec != nil {
		s.f.rec.AddGlobal(obs.CtrDiskChunks, 1)
		s.f.rec.AddGlobal(obs.CtrDiskBytes, int64(len(b)))
	}
	if s.f.version == version2 {
		if err := s.checkFrames(b, s.next, n); err != nil {
			atomic.AddInt64(&s.f.stats.Corruptions, 1)
			if s.f.rec != nil {
				s.f.rec.AddGlobal(obs.CtrDiskCorruptions, 1)
			}
			return nil, err
		}
	}
	s.next += n
	s.chunkIdx++
	return vals, nil
}

// verifyTail completes the checksum of the frame the range ends
// inside, when the scan has checksummed it from its first record: the
// frame's remaining records are read, in chunks of at most the
// scanner's size and under the next chunk ordinals, into the buffer
// whose last chunk the caller no longer holds. A range lying inside a
// single frame never saw a frame start and verifies nothing.
func (s *fileScanner) verifyTail() error {
	fr := s.f.frameRecs
	if !s.crcValid || s.next%fr == 0 || s.next >= s.f.n {
		return nil
	}
	frameEnd := min((s.next/fr+1)*fr, s.f.n)
	for s.next < frameEnd {
		if _, err := s.load(min(s.chunkR, frameEnd-s.next)); err != nil {
			return err
		}
	}
	return nil
}

// readChunk fills b with the records starting at next, retrying
// transient failures (including injected ones) with exponential
// backoff. Reads that run past the end of the file are truncation —
// permanent, never retried. After the retry budget is spent the
// failure surfaces as a *ChunkError naming the chunk.
func (s *fileScanner) readChunk(b []byte) error {
	off := s.f.dataOff + int64(s.next)*int64(s.f.d)*8
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			atomic.AddInt64(&s.f.stats.Retries, 1)
			if s.f.rec != nil {
				s.f.rec.AddGlobal(obs.CtrDiskRetries, 1)
			}
			time.Sleep(s.f.backoff << (attempt - 1))
		}
		err := s.readOnce(b, off)
		if err == nil {
			return nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("diskio: reading %s: truncated data section: %w", s.f.path, err)
		}
		lastErr = err
		if attempt == s.f.maxRetries {
			break
		}
	}
	return &ChunkError{
		Path:     s.f.path,
		Chunk:    s.chunkIdx,
		RecLo:    s.next,
		RecHi:    s.next + len(b)/(8*s.f.d),
		Attempts: s.f.maxRetries + 1,
		Err:      lastErr,
	}
}

// readOnce performs one read attempt, applying at most one injected
// fault from the file's plan. An injected bit flip corrupts the data
// after a successful read — on a v2 file the frame checksum catches it;
// on a v1 file it silently becomes garbage data, which is exactly the
// failure mode the v2 format exists to close.
func (s *fileScanner) readOnce(b []byte, off int64) error {
	if k, ok := s.f.plan.ReadFault(s.chunkIdx); ok {
		switch k {
		case faults.ReadError:
			return faults.ErrRead
		case faults.ShortRead:
			half := len(b) / 2
			if half > 0 {
				if _, err := s.h.ReadAt(b[:half], off); err != nil {
					return err
				}
			}
			return fmt.Errorf("%w: %d of %d bytes", faults.ErrShortRead, half, len(b))
		case faults.BitFlip:
			if _, err := s.h.ReadAt(b, off); err != nil {
				return err
			}
			pos := s.f.plan.BitPos(s.chunkIdx, int64(len(b))*8)
			b[pos/8] ^= 1 << uint(pos%8)
			return nil
		}
	}
	_, err := s.h.ReadAt(b, off)
	return err
}

// checkFrames feeds the chunk's bytes (records [start, start+n)) into
// the running per-frame CRC32C and compares it against the stored table
// at every frame boundary the chunk crosses.
func (s *fileScanner) checkFrames(b []byte, start, n int) error {
	rw := s.f.d * 8
	pos := start
	for n > 0 {
		frame := pos / s.f.frameRecs
		frameEnd := (frame + 1) * s.f.frameRecs
		if frameEnd > s.f.n {
			frameEnd = s.f.n
		}
		take := n
		if take > frameEnd-pos {
			take = frameEnd - pos
		}
		if s.crcValid {
			s.crc = crc32.Update(s.crc, castagnoli, b[:take*rw])
		}
		pos += take
		n -= take
		b = b[take*rw:]
		if pos == frameEnd {
			if s.crcValid && s.crc != s.f.crcs[frame] {
				return &CorruptionError{
					Path:  s.f.path,
					Frame: frame,
					RecLo: frame * s.f.frameRecs,
					RecHi: frameEnd,
					Want:  s.f.crcs[frame],
					Got:   s.crc,
				}
			}
			s.crc = 0
			s.crcValid = true
		}
	}
	return nil
}

func (s *fileScanner) Err() error { return s.err }

func (s *fileScanner) Close() error {
	if s.h != nil {
		return s.h.Close()
	}
	return nil
}

// ShareBounds returns the contiguous record range [lo, hi) owned by
// rank out of p processors over n records, the block distribution the
// paper uses when staging the shared data set.
func ShareBounds(n, rank, p int) (lo, hi int) {
	if p <= 0 {
		return 0, n
	}
	lo = rank * n / p
	hi = (rank + 1) * n / p
	return
}

// Stage copies rank's N/p contiguous share of the shared record file
// into localDir (the simulated local disk) and returns the opened local
// file. The local file's header domains describe the *global* data set,
// copied from the shared header, because the adaptive-grid phase needs
// the global domains.
func Stage(shared *File, localDir string, rank, p int) (*File, error) {
	if err := os.MkdirAll(localDir, 0o755); err != nil {
		return nil, err
	}
	lo, hi := ShareBounds(shared.NumRecords(), rank, p)
	localPath := filepath.Join(localDir, fmt.Sprintf("shard-%04d-of-%04d.pmaf", rank, p))
	w, err := Create(localPath, shared.Dims())
	if err != nil {
		return nil, err
	}
	sc := shared.ScanRange(lo, hi, 8192)
	for {
		chunk, n := sc.Next()
		if n == 0 {
			break
		}
		if err := w.AppendChunk(chunk, n); err != nil {
			sc.Close()
			w.Abort()
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		sc.Close()
		w.Abort()
		return nil, err
	}
	sc.Close()
	// Preserve the global domains: overwrite the local writer's
	// observed domains with the shared header's before finalizing.
	copy(w.lo, domLo(shared.domains))
	copy(w.hi, domHi(shared.domains))
	if err := w.Close(); err != nil {
		return nil, err
	}
	return Open(localPath)
}

func domLo(rs []dataset.Range) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Lo
	}
	return out
}

func domHi(rs []dataset.Range) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Hi
	}
	return out
}
