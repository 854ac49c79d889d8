package daemon

// Generation-aware model residency. A cache entry is a handle whose
// current compiled generation is swapped atomically: requests load the
// pointer once and use that immutable snapshot end to end, so an
// in-flight request finishes on the generation it started with, a new
// request sees the new one, and no request ever observes a torn model.
// Freshness is checked against the file on disk at most once per
// Config.SwapCheck per model, off the request path; a failed reload
// keeps serving the previous generation and surfaces through the
// swap.errors counter and the per-model staleness gauge.

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pmafia/internal/assign"
	"pmafia/internal/modelio"
	"pmafia/internal/obs"
)

// compiled is one immutable generation of a served model: the assign
// index plus the identity (generation, payload fingerprint, file stat)
// the swap logic compares against the file on disk. Everything a
// request touches hangs off this value, so sharing it is safe and
// swapping it is one pointer store.
type compiled struct {
	ix    *assign.Index
	n     int    // records the model was fitted on
	gen   uint64 // generation from the .pmfm header
	fp    uint64 // payload fingerprint from the .pmfm header
	mtime int64  // file mtime (unixnano) statted just before the read
	size  int64  // file size statted just before the read
}

// model is one cache entry: a handle over the current compiled
// generation. The pointer is nil until the first successful load;
// loads and swaps serialize on mu, readers never take it.
type model struct {
	path string
	name string

	mu  sync.Mutex // serializes loads and swaps
	cur atomic.Pointer[compiled]

	lastCheck atomic.Int64 // unixnano of the last freshness check
}

func newModel(path string) *model {
	return &model{path: path, name: filepath.Base(path)}
}

// compile loads the model file and builds its immutable serving state.
// The stat is taken before the read: if the file is replaced between
// the two, the recorded mtime is older than the content and the next
// freshness check reloads — never the reverse, which would record a
// stale payload as fresh and pin it.
func compile(path string) (*compiled, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res, meta, err := modelio.LoadMeta(path)
	if err != nil {
		return nil, err
	}
	ix, err := assign.New(res.Grid, res.Clusters)
	if err != nil {
		return nil, err
	}
	return &compiled{
		ix:    ix,
		n:     res.N,
		gen:   meta.Generation,
		fp:    meta.Fingerprint,
		mtime: st.ModTime().UnixNano(),
		size:  st.Size(),
	}, nil
}

// ensure returns the current compiled generation, loading it first if
// the handle is empty. Concurrent first loads serialize on mu; a
// failure leaves the handle empty (the caller evicts it) and every
// waiter gets the error.
func (m *model) ensure() (*compiled, error) {
	if cx := m.cur.Load(); cx != nil {
		return cx, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cx := m.cur.Load(); cx != nil {
		return cx, nil
	}
	cx, err := compile(m.path)
	if err != nil {
		return nil, err
	}
	m.cur.Store(cx)
	return cx, nil
}

// loaded reports, without blocking or triggering a load, whether the
// handle holds a successfully loaded generation.
func (m *model) loaded() bool { return m.cur.Load() != nil }

// freshen schedules a background freshness check for a resident model,
// at most once per SwapCheck interval. The CAS makes one request the
// designated checker; everyone else (including the winner) proceeds on
// the generation it already holds, so the request path never waits on
// a stat or a reload.
func (d *Daemon) freshen(m *model) {
	if d.cfg.SwapCheck < 0 {
		return
	}
	now := time.Now().UnixNano()
	last := m.lastCheck.Load()
	if now-last < int64(d.cfg.SwapCheck) {
		return
	}
	if !m.lastCheck.CompareAndSwap(last, now) {
		return
	}
	d.swaps.Add(1)
	go func() {
		defer d.swaps.Done()
		d.maybeSwap(m)
	}()
}

// maybeSwap compares the resident generation against the file on disk
// and hot-swaps a changed model in. A reload that fails — the file is
// mid-rewrite, corrupt, or gone — keeps serving the previous
// generation; the staleness gauge then reports how long the newer file
// has gone unserved, and the next check retries.
func (d *Daemon) maybeSwap(m *model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur == nil {
		// Never loaded (or evicted): the request path owns first loads.
		return
	}
	d.rec.Add(0, obs.CtrSwapChecks, 1)
	st, err := os.Stat(m.path)
	if err != nil {
		// The file vanished; keep serving the resident generation.
		d.rec.Add(0, obs.CtrSwapErrors, 1)
		return
	}
	if st.ModTime().UnixNano() == cur.mtime && st.Size() == cur.size {
		d.rec.SetGauge(obs.GaugeModelStaleness(m.name), 0)
		return
	}
	start := time.Now()
	next, err := compile(m.path)
	if err != nil {
		d.rec.Add(0, obs.CtrSwapErrors, 1)
		d.rec.SetGauge(obs.GaugeModelStaleness(m.name), time.Since(st.ModTime()).Seconds())
		return
	}
	if next.gen == cur.gen && next.fp == cur.fp {
		// Same content rewritten in place (a copy restored, a touched
		// file): adopt the new stat identity without counting a swap.
		m.cur.Store(next)
		d.rec.SetGauge(obs.GaugeModelStaleness(m.name), 0)
		return
	}
	m.cur.Store(next)
	d.rec.Add(0, obs.CtrSwapSwaps, 1)
	d.rec.Observe(0, obs.HistSwapSeconds, time.Since(start).Seconds())
	d.rec.SetGauge(obs.GaugeModelStaleness(m.name), 0)
}
