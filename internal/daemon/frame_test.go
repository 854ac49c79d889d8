package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"

	"pmafia/internal/obs"
)

// frameBody builds a framed request for rows of the 5-dim test model.
func frameBody(t *testing.T, dims int, vals []float64) []byte {
	t.Helper()
	b, err := EncodeFrame(dims, vals)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAssignFrameMatchesOracle drives the framed binary protocol
// end-to-end and checks the labels agree with the engine's linear
// oracle, like the CSV path does.
func TestAssignFrameMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	res, m := fitModel(t, dir, "a.pmfm", 21)
	d, base := startDaemon(t, Config{ModelDir: dir})
	defer d.Shutdown(context.Background())

	want, err := res.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postAssign(t, base, "a.pmfm", ContentTypeFrame, frameBody(t, 5, m.Values))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if len(raw) != 4*len(want) {
		t.Fatalf("frame reply of %d bytes for %d labels", len(raw), len(want))
	}
	for i := range want {
		if got := int32(binary.LittleEndian.Uint32(raw[4*i:])); got != want[i] {
			t.Fatalf("record %d: daemon %d, oracle %d", i, got, want[i])
		}
	}
	if d.rec.Counter(obs.CtrAssignFrames) == 0 {
		t.Error("assign.frames counter did not move")
	}
}

// TestAssignFrameErrors maps each malformed frame to its status code:
// 400 for structural errors, 413 when the declared payload exceeds the
// body cap — before any payload is read.
func TestAssignFrameErrors(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 22)
	d, base := startDaemon(t, Config{ModelDir: dir, MaxBody: 1 << 16})
	defer d.Shutdown(context.Background())

	good := func() []byte {
		b, err := EncodeFrame(5, []float64{1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"empty", nil, http.StatusBadRequest},
		{"short header", good()[:7], http.StatusBadRequest},
		{"bad magic", append([]byte("XXXX"), good()[4:]...), http.StatusBadRequest},
		{"bad version", func() []byte {
			b := good()
			binary.LittleEndian.PutUint32(b[4:], 9)
			return b
		}(), http.StatusBadRequest},
		{"wrong dims", frameBody(t, 3, []float64{1, 2, 3}), http.StatusBadRequest},
		{"truncated payload", good()[:len(good())-8], http.StatusBadRequest},
		{"trailing bytes", append(good(), 0), http.StatusBadRequest},
		{"hostile record count", func() []byte {
			b := good()
			binary.LittleEndian.PutUint32(b[12:], math.MaxUint32)
			return b
		}(), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, raw := postAssign(t, base, "a.pmfm", ContentTypeFrame, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, bytes.TrimSpace(raw), tc.code)
		}
	}
}

// countingReader counts the bytes decodeFrame actually consumed, so
// the fuzz target can pin that the decoder never reads past the
// declared payload (plus the one-byte trailing probe).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzAssignFrame fuzzes the framed-protocol decoder: arbitrary bodies
// — truncated frames, hostile record counts, misaligned lengths — must
// come back as typed errors, never a panic, an over-read, or an
// allocation past the body cap.
func FuzzAssignFrame(f *testing.F) {
	if seed, err := EncodeFrame(3, []float64{1, 2, 3, 4, 5, 6}); err != nil {
		f.Fatal(err)
	} else {
		f.Add(seed, 3)
		f.Add(seed[:20], 3)             // truncated payload
		f.Add(seed[:7], 3)              // truncated header
		f.Add(append(seed, 1, 2, 3), 3) // trailing bytes
		f.Add([]byte("PMASxxxxyyyyzzzz"), 4)
		hostile := append([]byte(nil), seed...)
		binary.LittleEndian.PutUint32(hostile[12:], math.MaxUint32)
		f.Add(hostile, 3)
	}
	// A payload of the values an in-place decode must carry bit for
	// bit: NaN payloads, signed zeros, infinities, subnormals.
	if seed, err := EncodeFrame(4, []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef), 1,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
	}); err != nil {
		f.Fatal(err)
	} else {
		f.Add(seed, 4)
	}
	const maxBytes = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte, wantDims int) {
		if wantDims < 1 || wantDims > 256 {
			wantDims = 1 + (wantDims&0xff+256)%256
		}
		cr := &countingReader{r: bytes.NewReader(data)}
		vals, err := decodeFrame(cr, wantDims, maxBytes)
		if err != nil {
			for _, typed := range []error{ErrFrameMagic, ErrFrameVersion, ErrFrameDims,
				ErrFrameTruncated, ErrFrameTooLarge, ErrFrameTrailing} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		if len(vals)%wantDims != 0 {
			t.Fatalf("%d values do not divide into %d-dim records", len(vals), wantDims)
		}
		if 8*int64(len(vals)) > maxBytes {
			t.Fatalf("decoded %d values past the %d-byte cap", len(vals), maxBytes)
		}
		// Success consumes exactly header + payload + the trailing probe
		// byte's EOF — never more.
		if want := int64(frameHeaderSize + 8*len(vals)); cr.n != want {
			t.Fatalf("decoder consumed %d bytes, want %d", cr.n, want)
		}
		if records := binary.LittleEndian.Uint32(data[12:]); int(records)*wantDims != len(vals) {
			t.Fatalf("header declares %d records, decoder returned %d values", records, len(vals))
		}
		// Every value is the per-value little-endian decode of its
		// payload bytes, bit for bit.
		for i, v := range vals {
			if want := binary.LittleEndian.Uint64(data[frameHeaderSize+8*i:]); math.Float64bits(v) != want {
				t.Fatalf("value %d = %#x, payload holds %#x", i, math.Float64bits(v), want)
			}
		}
	})
}

// TestDecodeFrameAllocatesOnlyValues pins the in-place decode: a frame
// of 8 records × 10 dims allocates its 640-byte value slice and at
// most 64 bytes more per call, with no staging buffer.
func TestDecodeFrameAllocatesOnlyValues(t *testing.T) {
	const dims, records, calls = 10, 8, 2000
	vals := make([]float64, dims*records)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	frame := frameBody(t, dims, vals)
	rd := bytes.NewReader(frame)
	decode := func() {
		rd.Reset(frame)
		got, err := decodeFrame(rd, dims, 1<<20)
		if err != nil || len(got) != len(vals) {
			t.Fatalf("decode: %d values, %v", len(got), err)
		}
	}
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := uint64(8*dims*records + 64); perCall > limit {
		t.Fatalf("decodeFrame allocated %d bytes per call, want at most %d", perCall, limit)
	}
}
