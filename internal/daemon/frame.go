package daemon

// The framed binary /assign protocol. A frame is a 16-byte
// little-endian header followed by the record payload:
//
//	offset  size  field
//	0       4     magic "PMAS"
//	4       4     uint32 version (currently 1)
//	8       4     uint32 dims    (must equal the model's dimensionality)
//	12      4     uint32 records
//	16      8*dims*records  row-major little-endian float64 values
//
// The header declares the payload size up front, so the decoder sizes
// the float64 output once — reusing the caller's recycled buffer when
// it is large enough, allocating otherwise — and reads the body
// straight into it: no staging buffer, no zeroing, no per-value copy
// on a little-endian host; and a hostile length can be rejected before
// any payload is read or any buffer sized.
// Every malformed input maps to a typed error below; the decoder never
// panics and never reads past the declared payload.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pmafia/internal/dataset"
)

// ContentTypeFrame is the Content-Type that selects the framed binary
// protocol on /assign.
const ContentTypeFrame = "application/x-pmafia-assign"

// frameMagic opens every frame; frameVersion is the only version this
// decoder speaks; frameHeaderSize is the fixed header length.
const (
	frameMagic      = "PMAS"
	frameVersion    = 1
	frameHeaderSize = 16
)

// Typed frame-decode errors. They map to 400 (client error) in the
// handler, except ErrFrameTooLarge which maps to 413.
var (
	ErrFrameMagic     = errors.New("assign frame: bad magic (want \"PMAS\")")
	ErrFrameVersion   = errors.New("assign frame: unsupported version")
	ErrFrameDims      = errors.New("assign frame: dims do not match the model")
	ErrFrameTruncated = errors.New("assign frame: truncated body")
	ErrFrameTooLarge  = errors.New("assign frame: declared payload exceeds the body cap")
	ErrFrameTrailing  = errors.New("assign frame: trailing bytes after the declared payload")
)

// EncodeFrame builds a frame for dims-dimensional records. vals is the
// row-major value matrix; len(vals) must be a multiple of dims.
// Clients (and the bench load harness) use it to speak the protocol.
func EncodeFrame(dims int, vals []float64) ([]byte, error) {
	if dims < 1 {
		return nil, fmt.Errorf("assign frame: dims %d < 1", dims)
	}
	if len(vals)%dims != 0 {
		return nil, fmt.Errorf("assign frame: %d values do not divide into %d-dim records", len(vals), dims)
	}
	buf := make([]byte, frameHeaderSize+8*len(vals))
	copy(buf, frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], frameVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(dims))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(vals)/dims))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[frameHeaderSize+8*i:], math.Float64bits(v))
	}
	return buf, nil
}

// decodeFrame reads one frame from r and returns its values, validated
// against the model dimensionality, in buf when its capacity holds
// them. The header is read into hdr, or into a fresh array when hdr is
// nil: any buffer handed to a Reader escapes to the heap, so a caller
// that recycles one saves an allocation per frame. maxBytes is the
// request body cap: a frame whose declared payload (header included)
// would exceed it is rejected with ErrFrameTooLarge before the payload
// is read, so a hostile record count costs the server nothing. The
// reader is expected to hold exactly one frame; any bytes after the
// declared payload are ErrFrameTrailing.
func decodeFrame(r io.Reader, wantDims int, maxBytes int64, buf []float64, hdr *[frameHeaderSize]byte) ([]float64, error) {
	if hdr == nil {
		hdr = new([frameHeaderSize]byte)
	}
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	if string(hdr[:4]) != frameMagic {
		return nil, ErrFrameMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != frameVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrFrameVersion, v, frameVersion)
	}
	dims := binary.LittleEndian.Uint32(hdr[8:])
	if wantDims < 1 || dims != uint32(wantDims) {
		return nil, fmt.Errorf("%w: frame has %d, model wants %d", ErrFrameDims, dims, wantDims)
	}
	records := binary.LittleEndian.Uint32(hdr[12:])
	// Division, not multiplication: records*dims*8 can overflow int64
	// for hostile counts, the quotient bound cannot.
	if maxBytes > 0 && int64(records) > (maxBytes-frameHeaderSize)/(int64(dims)*8) {
		return nil, fmt.Errorf("%w: %d records of %d dims", ErrFrameTooLarge, records, dims)
	}
	vals := grow(buf, int(int64(records)*int64(dims)))
	if _, err := io.ReadFull(r, dataset.Bytes(vals)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, ErrFrameTruncated
		}
		return nil, err
	}
	dataset.FromLittleEndian(vals)
	// The header is parsed; its first byte probes for trailing bytes.
	if n, err := r.Read(hdr[:1]); n != 0 {
		return nil, ErrFrameTrailing
	} else if err != nil && err != io.EOF {
		return nil, err
	}
	return vals, nil
}
