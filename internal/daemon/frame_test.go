package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"pmafia/internal/dataset"
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
// oracle, like the CSV path does. The daemon recycles its request
// buffers, so one daemon then serves a 4096-record frame, an 8-record
// one, a truncated and a trailing-bytes frame, a CSV body and the
// 4096-record frame again: each malformed frame gets a 400, and every
// 200 reply equals the oracle, whatever the request before it left.
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

	const dims = 5
	oracle := func(vals []float64) []int32 {
		want := make([]int32, len(vals)/dims)
		for i := range want {
			want[i] = int32(res.AssignRecord(vals[i*dims : (i+1)*dims]))
		}
		return want
	}
	checkFrame := func(step string, body []byte, vals []float64) {
		t.Helper()
		resp, raw := postAssign(t, base, "a.pmfm", ContentTypeFrame, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, resp.StatusCode, raw)
		}
		want := oracle(vals)
		if len(raw) != 4*len(want) {
			t.Fatalf("%s: frame reply of %d bytes for %d labels", step, len(raw), len(want))
		}
		for i := range want {
			if got := int32(binary.LittleEndian.Uint32(raw[4*i:])); got != want[i] {
				t.Fatalf("%s: record %d: daemon %d, oracle %d", step, i, got, want[i])
			}
		}
	}
	large := make([]float64, 4096*dims)
	for i := range large {
		large[i] = m.Values[(i+7*dims)%len(m.Values)]
	}
	small := m.Values[100*dims : 108*dims]
	largeFrame, smallFrame := frameBody(t, dims, large), frameBody(t, dims, small)
	checkFrame("4096-record frame", largeFrame, large)
	checkFrame("8-record frame", smallFrame, small)
	for _, bad := range []struct {
		step string
		body []byte
	}{
		{"truncated frame", largeFrame[:len(largeFrame)-8]},
		{"trailing bytes", append(append([]byte(nil), smallFrame...), 0)},
	} {
		if resp, raw := postAssign(t, base, "a.pmfm", ContentTypeFrame, bad.body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", bad.step, resp.StatusCode, bytes.TrimSpace(raw))
		}
	}
	csvRows := &dataset.Matrix{D: dims, Values: m.Values[300*dims : 350*dims]}
	resp, raw = postAssign(t, base, "a.pmfm", "text/csv", csvBody(csvRows))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("CSV body: status %d: %s", resp.StatusCode, raw)
	}
	var ar assignResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if want := oracle(csvRows.Values); fmt.Sprint(ar.Labels) != fmt.Sprint(want) {
		t.Fatalf("CSV body: daemon %v, oracle %v", ar.Labels, want)
	}
	checkFrame("4096-record frame again", largeFrame, large)
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
		// A recycled buffer arrives holding an earlier request's values:
		// a frame that fits must overwrite every one it returns.
		dirty := make([]float64, 16)
		for i := range dirty {
			dirty[i] = math.Float64frombits(0x7ff4dead0000beef)
		}
		vals, err := decodeFrame(cr, wantDims, maxBytes, dirty, nil)
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
		got, err := decodeFrame(rd, dims, 1<<20, nil, nil)
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

// discardWriter is a ResponseWriter that keeps nothing but its header
// map, so a handler's allocations are its own.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// rewindBody is a request body that replays one frame per request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// raceBuild reports whether the test binary runs under the race
// detector, whose sync.Pool drops a random quarter of what is put back.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestFramedHandlerAllocs pins what one framed /assign request costs
// the daemon's handler, middleware included, once warm: 8-record and
// 4096-record frames make the same number of allocations, and the
// bytes they allocate do not grow with the frame — the frame header,
// values, labels, reply and kernel scratch are recycled, metric names
// are built once per route, status and model, and an uncontended
// request starts no queue timer.
func TestFramedHandlerAllocs(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	// One P throughout, as AllocsPerRun sets for its own runs: a pooled
	// set waits in the pool of the P that put it back, so a goroutine
	// moved to another P would find an empty pool and allocate anew.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	_, m := fitModel(t, dir, "a.pmfm", 24)
	d, _ := startDaemon(t, Config{ModelDir: dir, SwapCheck: -1, TraceRing: 1})
	defer d.Shutdown(context.Background())

	const dims = 5
	frames := map[int][]byte{}
	for _, n := range []int{8, 4096} {
		vals := make([]float64, 0, n*dims)
		for len(vals) < n*dims {
			vals = append(vals, m.Values[len(vals)%len(m.Values)])
		}
		frames[n] = frameBody(t, dims, vals)
	}
	w := &discardWriter{h: http.Header{}}
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/assign?model=a.pmfm", body)
	req.Header.Set("Content-Type", ContentTypeFrame)
	serve := func(frame []byte) func() {
		return func() {
			body.Reset(frame)
			d.srv.Handler.ServeHTTP(w, req)
		}
	}
	// Warm up the model cache, the buffer pool, the metric series and
	// their cached names, and the trace ring's slow slot with the slower
	// size.
	const warm = 300
	for i := 0; i < warm; i++ {
		serve(frames[4096])()
	}
	if n := d.rec.Counter(obs.CtrAssignFrames); n != warm {
		t.Fatalf("warm-up labeled %d frames, want %d", n, warm)
	}

	const runs = 200
	allocs := map[int]float64{}
	bytesPer := map[int]uint64{}
	for _, n := range []int{8, 4096} {
		allocs[n] = testing.AllocsPerRun(runs, serve(frames[n]))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve(frames[n])()
		}
		runtime.ReadMemStats(&after)
		bytesPer[n] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	t.Logf("per request: 8 records %v allocs, %d B; 4096 records %v allocs, %d B",
		allocs[8], bytesPer[8], allocs[4096], bytesPer[4096])
	if allocs[8] != allocs[4096] {
		t.Errorf("an 8-record frame makes %v allocations, a 4096-record one %v", allocs[8], allocs[4096])
	}
	// A 4096-record frame carries 160 KB of values and 16 KB of labels;
	// none of it may be allocated per request.
	if grew := int64(bytesPer[4096]) - int64(bytesPer[8]); grew > 512 {
		t.Errorf("a 4096-record frame allocates %d B per request, %d more than an 8-record one", bytesPer[4096], grew)
	}
	const pinned = 14
	if allocs[4096] > pinned {
		t.Errorf("a framed request makes %v allocations, pinned at %d", allocs[4096], pinned)
	}
}
