package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// TestIngestEndToEnd drives the full streaming lifecycle through the
// daemon: records stream in over POST /ingest, an explicit refit
// writes generation 1, /assign serves it, more records plus a second
// refit write generation 2, and the freshness check hot-swaps it in —
// the daemon never stops answering.
func TestIngestEndToEnd(t *testing.T) {
	_, m := fitDistinct(t, []int{0, 2, 4}, 41)
	dir := t.TempDir()
	d, base := startDaemon(t, Config{
		ModelDir:    dir,
		SwapCheck:   time.Millisecond,
		IngestModel: "live.pmfm",
		IngestDims:  5,
	})
	defer d.Shutdown(context.Background())

	ingest := func(query string, body []byte) ingestResponse {
		t.Helper()
		resp, err := http.Post(base+"/ingest"+query, "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ir ingestResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return ir
	}

	// Stream the records in two chunks, then trigger a refit with an
	// empty body.
	half := m.NumRecords() / 2
	body := csvBody(m)
	ir := ingest("", csvBody(m.Slice(0, half)))
	if ir.Appended != half || ir.Generation != 0 || ir.Pending != half {
		t.Fatalf("first ingest reply %+v", ir)
	}
	ingest("", csvBody(m.Slice(half, m.NumRecords())))
	ir = ingest("?refit=1", nil)
	if !ir.Refitted || ir.Generation != 1 || ir.Pending != 0 || ir.Records != m.NumRecords() {
		t.Fatalf("refit reply %+v", ir)
	}

	// The written generation serves under the ingest model name.
	res1, meta, err := modelio.LoadMeta(filepath.Join(dir, "live.pmfm"))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 {
		t.Fatalf("generation on disk = %d, want 1", meta.Generation)
	}
	want1, err := res1.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := assignLabels(t, base, "live.pmfm", body); !labelsEqual(got, want1) {
		t.Fatal("served labels do not match the streamed model")
	}

	// Stream a second batch that reshapes the model, refit, and wait
	// for the hot swap — assign keeps answering throughout.
	_, m2 := fitDistinct(t, []int{1, 3}, 42)
	ingest("", csvBody(m2))
	ir = ingest("?refit=1", nil)
	if !ir.Refitted || ir.Generation != 2 {
		t.Fatalf("second refit reply %+v", ir)
	}
	res2, _, err := modelio.LoadMeta(filepath.Join(dir, "live.pmfm"))
	if err != nil {
		t.Fatal(err)
	}
	want2, err := res2.Assign(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got := assignLabels(t, base, "live.pmfm", body)
		if labelsEqual(got, want2) {
			break
		}
		if !labelsEqual(got, want1) {
			t.Fatal("response matches neither generation: torn model")
		}
		if time.Now().After(deadline) {
			t.Fatal("generation 2 never swapped in")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRefitsLeaveRecorderClean: a refit's fit runs without the
// daemon's recorder, so however many refits a daemon serves, its
// recorder holds no engine spans and no collective events, while the
// ingest.* counters and the refit-duration histogram still land there.
func TestRefitsLeaveRecorderClean(t *testing.T) {
	_, m := fitDistinct(t, []int{0, 2, 4}, 44)
	d, base := startDaemon(t, Config{
		ModelDir:    t.TempDir(),
		IngestModel: "live.pmfm",
		IngestDims:  5,
	})
	defer d.Shutdown(context.Background())

	const refits = 4
	body := csvBody(m)
	for i := 0; i < refits; i++ {
		resp, err := http.Post(base+"/ingest?refit=1", "text/csv", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("refit %d: status %d", i, resp.StatusCode)
		}
	}
	for rank := 0; rank < d.rec.Ranks(); rank++ {
		if spans := d.rec.Spans(rank); len(spans) != 0 {
			t.Errorf("rank %d: recorder holds %d spans after %d refits, want 0", rank, len(spans), refits)
		}
	}
	if colls := d.rec.Collectives(); len(colls) != 0 {
		t.Errorf("recorder holds %d collective events after %d refits, want 0", len(colls), refits)
	}
	if got := d.rec.Counter(obs.CtrIngestRefits); got != refits {
		t.Errorf("ingest.refits = %d, want %d", got, refits)
	}
	if h := d.rec.Histogram(obs.HistIngestRefitSeconds); h == nil || h.Count() != refits {
		t.Errorf("ingest.refit.seconds histogram %v, want %d observations", h, refits)
	}
}

// TestIngestErrors pins the endpoint's failure modes: disabled unless
// configured, POST only, whole well-shaped records only, and a body
// over the size limit refused as too large.
func TestIngestErrors(t *testing.T) {
	dir := t.TempDir()
	fitModel(t, dir, "a.pmfm", 43)

	// Not configured: 404.
	plain, base := startDaemon(t, Config{ModelDir: dir})
	resp, err := http.Post(base+"/ingest", "text/csv", bytes.NewReader([]byte("1,2,3,4,5\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unconfigured ingest: status %d, want 404", resp.StatusCode)
	}
	plain.Shutdown(context.Background())

	d, base := startDaemon(t, Config{
		ModelDir:    dir,
		IngestModel: "live.pmfm",
		IngestDims:  5,
		MaxBody:     64,
	})
	defer d.Shutdown(context.Background())

	// GET is rejected.
	resp, err = http.Get(base + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}

	// Wrong dimensionality is a client error.
	resp, err = http.Post(base+"/ingest", "text/csv", bytes.NewReader([]byte("1,2,3\n")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("3-dim body into 5-dim stream: status %d, want 400", resp.StatusCode)
	}

	// An oversized CSV body is 413, not a generic 400: the decoder
	// returns the body reader's error as it is. The oversize stays
	// modest so the request fits in socket buffers and the client
	// always reads the reply.
	big := bytes.Repeat([]byte("1,2,3,4,5\n"), 20)
	resp, err = http.Post(base+"/ingest", "text/csv", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized CSV body: status %d, want 413", resp.StatusCode)
	}

	// A refit over zero records reports failure, not a crash.
	resp, err = http.Post(base+"/ingest?refit=1", "text/csv", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("empty refit: status %d, want 422", resp.StatusCode)
	}
}

// TestIngestModelNameValidation rejects ingest model names escaping
// the model directory.
func TestIngestModelNameValidation(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"../out.pmfm", "a/b.pmfm", `a\b.pmfm`} {
		if _, err := New(Config{Addr: "127.0.0.1:0", ModelDir: dir, IngestModel: name, IngestDims: 3}); err == nil {
			t.Errorf("IngestModel %q accepted", name)
		}
	}
	if _, err := New(Config{Addr: "127.0.0.1:0", ModelDir: dir, IngestModel: "ok.pmfm"}); err == nil {
		t.Error("IngestModel without IngestDims accepted")
	}
}
