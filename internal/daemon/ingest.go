package daemon

// The streaming-ingest endpoint. When Config.IngestModel is set the
// daemon owns an ingest.Ingester writing into the model directory:
//
//	POST /ingest
//	     Body: records in either /assign encoding — CSV (default) or
//	     one PMAS frame (application/x-pmafia-assign). The records are
//	     appended to the stream; a refit is triggered in the background
//	     once Config.RefitEvery records accumulate.
//	POST /ingest?refit=1
//	     After appending the body (which may be empty), refits
//	     synchronously and reports the generation written.
//
// Each refit writes the next generation of IngestModel atomically; the
// serving side's freshness checks then hot-swap it in, so /assign
// against the same name keeps answering — on the previous generation —
// while the refit runs, and picks the new one up when it lands.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
)

// ingestResponse is the POST /ingest reply.
type ingestResponse struct {
	// Appended is the number of records this request added.
	Appended int `json:"appended"`
	// Records and Pending mirror ingest.Stats after the append (and
	// refit, when one was requested).
	Records int `json:"records"`
	Pending int `json:"pending"`
	// Generation is the newest model generation written (0 before the
	// first refit completes).
	Generation uint64 `json:"generation"`
	// Refitted reports whether this request ran a synchronous refit.
	Refitted bool `json:"refitted,omitempty"`
}

func (d *Daemon) ingestHandler(w http.ResponseWriter, r *http.Request) {
	if d.ing == nil {
		http.Error(w, "streaming ingest is not enabled", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	t := traceOf(r.Context())
	t.Model = d.cfg.IngestModel

	dims := d.ing.Dims()
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, d.cfg.MaxBody))
	appended := 0
	// An absent body is legal for a bare refit trigger; anything else
	// must decode to whole dims-dimensional records.
	if _, err := body.Peek(1); err != io.EOF {
		frameIn := strings.HasPrefix(r.Header.Get("Content-Type"), ContentTypeFrame)
		vals, err := decodeRecords(body, frameIn, dims, d.cfg.MaxBody)
		if err == nil && len(vals) > 0 {
			appended = len(vals) / dims
			err = d.ing.Append(vals, appended)
		}
		if err != nil {
			code := http.StatusBadRequest
			if errors.As(err, new(*http.MaxBytesError)) || errors.Is(err, ErrFrameTooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			http.Error(w, err.Error(), code)
			return
		}
	}
	t.Records = appended

	resp := ingestResponse{Appended: appended}
	if r.URL.Query().Get("refit") != "" {
		if _, err := d.ing.Refit(); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		resp.Refitted = true
	}
	stats := d.ing.Stats()
	resp.Records = stats.Records
	resp.Pending = stats.Pending
	resp.Generation = stats.Generation
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
