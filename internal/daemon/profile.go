package daemon

// Continuous profiling: with Config.ProfileDir set, a background
// goroutine periodically captures a CPU profile (ProfileCPU long) and
// a heap profile into the directory, pruning old captures so at most
// ProfileKeep files per kind stay on disk. /debug/profiles serves a
// JSON index of what is retained; /debug/profiles/{name} serves the
// raw pprof bytes. A capture is written under a temporary name and
// renamed into place only once complete, so neither the index, the
// file endpoint, nor pruning ever sees a partial one. Unlike the
// on-demand /debug/pprof endpoints, this keeps a rolling window of
// "what was the daemon doing" even for incidents noticed after the
// fact.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"pmafia/internal/obs"
)

type profiler struct {
	dir      string
	interval time.Duration // sleep between capture cycles
	cpuDur   time.Duration // length of each CPU capture
	keep     int           // files retained per kind
	rec      *obs.Recorder

	seq      int64
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newProfiler(dir string, interval, cpuDur time.Duration, keep int, rec *obs.Recorder) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profiler{
		dir:      dir,
		interval: interval,
		cpuDur:   cpuDur,
		keep:     keep,
		rec:      rec,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.loop()
	return p, nil
}

// close stops the capture loop and waits for it to exit. A CPU
// capture in progress is cut short rather than waited out. Safe to
// call more than once (Shutdown may run after a failed Serve).
func (p *profiler) close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

func (p *profiler) loop() {
	defer close(p.done)
	t := time.NewTimer(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		p.captureCPU()
		p.captureHeap()
		p.prune()
		t.Reset(p.interval)
	}
}

// name builds a capture filename: kind, a sortable UTC stamp, and a
// process-lifetime sequence number to break same-millisecond ties.
func (p *profiler) name(kind string) string {
	p.seq++ // loop goroutine only; no lock needed
	return fmt.Sprintf("%s-%s-%06d.pprof", kind,
		time.Now().UTC().Format("20060102T150405.000"), p.seq)
}

// capture runs write into a temporary file (a ".tmp" suffix, which
// neither captures nor profileName matches) and renames it to the
// capture name once write and close succeed; on failure the temporary
// file is removed and the error counted.
func (p *profiler) capture(kind string, write func(f *os.File) error) bool {
	final := filepath.Join(p.dir, p.name(kind))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		p.rec.Add(0, obs.CtrProfileErrors, 1)
		return false
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		p.rec.Add(0, obs.CtrProfileErrors, 1)
		return false
	}
	return true
}

func (p *profiler) captureCPU() {
	ok := p.capture("cpu", func(f *os.File) error {
		// StartCPUProfile fails if another CPU profile is running (e.g. a
		// client hitting /debug/pprof/profile); count it and retry next
		// cycle rather than fight over the profiler.
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		select {
		case <-p.stop:
		case <-time.After(p.cpuDur):
		}
		pprof.StopCPUProfile()
		return nil
	})
	if ok {
		p.rec.Add(0, obs.CtrProfileCPU, 1)
	}
}

func (p *profiler) captureHeap() {
	if p.capture("heap", func(f *os.File) error { return pprof.Lookup("heap").WriteTo(f, 0) }) {
		p.rec.Add(0, obs.CtrProfileHeap, 1)
	}
}

// prune bounds the on-disk retention: for each kind, only the keep
// newest captures survive.
func (p *profiler) prune() {
	for _, kind := range []string{"cpu", "heap"} {
		names := p.captures(kind)
		for i := p.keep; i < len(names); i++ {
			if os.Remove(filepath.Join(p.dir, names[i])) == nil {
				p.rec.Add(0, obs.CtrProfilePruned, 1)
			}
		}
	}
}

// captures lists the retained capture files of one kind, newest
// first. Filenames embed a fixed-width UTC stamp plus a sequence
// number, so reverse-lexicographic order is capture order.
func (p *profiler) captures(kind string) []string {
	ents, err := os.ReadDir(p.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), kind+"-") && strings.HasSuffix(e.Name(), ".pprof") {
			names = append(names, e.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names
}

// profileInfo is one row of the /debug/profiles index.
type profileInfo struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`
	Bytes int64  `json:"bytes"`
	Time  string `json:"time"`
}

// profileName is the only shape /debug/profiles/{name} will serve —
// a capture filename, never a path.
var profileName = regexp.MustCompile(`^(cpu|heap)-[0-9T.]+-[0-9]+\.pprof$`)

// debugProfiles serves the continuous-profiling index (JSON) and the
// raw pprof files under it.
func (d *Daemon) debugProfiles(w http.ResponseWriter, r *http.Request) {
	if d.prof == nil {
		http.Error(w, "profiling disabled (start with -profile-dir)", http.StatusNotFound)
		return
	}
	name := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/profiles"), "/")
	if name == "" {
		out := []profileInfo{}
		for _, kind := range []string{"cpu", "heap"} {
			for _, n := range d.prof.captures(kind) {
				info := profileInfo{Name: n, Kind: kind}
				if fi, err := os.Stat(filepath.Join(d.prof.dir, n)); err == nil {
					info.Bytes = fi.Size()
					info.Time = fi.ModTime().UTC().Format(time.RFC3339)
				}
				out = append(out, info)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(out)
		return
	}
	if !profileName.MatchString(name) {
		http.Error(w, "bad profile name", http.StatusBadRequest)
		return
	}
	raw, err := os.ReadFile(filepath.Join(d.prof.dir, name))
	if err != nil {
		http.Error(w, "no such profile", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}
