package main

// Driving the shipped pmafiad binary: start it as a child process,
// talk HTTP/1.1 to it over plain keep-alive connections, and read what
// it already emits (access log, /metrics, /models, /debug/pprof, and
// its /proc entries).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonProc is a running pmafiad child.
type daemonProc struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{}
}

// running holds the daemons not yet stopped, so an interrupted run can
// stop them before it exits.
var running = struct {
	sync.Mutex
	procs map[*daemonProc]bool
}{procs: map[*daemonProc]bool{}}

// stopAll stops every daemon still running.
func stopAll() {
	running.Lock()
	procs := make([]*daemonProc, 0, len(running.procs))
	for d := range running.procs {
		procs = append(procs, d)
	}
	running.Unlock()
	for _, d := range procs {
		d.stop()
	}
}

// startDaemon starts bin with args on a free loopback port and waits
// until /healthz answers. Its stdout and stderr (where the access log
// goes by default) are discarded.
func startDaemon(bin string, args ...string) (*daemonProc, error) {
	if bin == "" {
		return nil, fmt.Errorf("no pmafiad binary given (-daemon)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The kernel kills the daemon if this process dies without
	// stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	running.Lock()
	running.procs[d] = true
	running.Unlock()
	c := &client{addr: addr}
	defer c.close()
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("pmafiad exited during start-up: %v", cmd.ProcessState)
		default:
		}
		if st, _, err := c.do("GET", "/healthz", "", nil, ""); err == nil && st == http.StatusOK {
			return d, nil
		}
		c.close()
		if time.Since(start) > 15*time.Second {
			d.stop()
			return nil, fmt.Errorf("pmafiad did not answer /healthz on %s", addr)
		}
	}
}

// stop shuts the daemon down gracefully and waits for it to exit,
// killing it if it does not within ten seconds.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	running.Lock()
	delete(running.procs, d)
	running.Unlock()
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// cpuSeconds is the user+system CPU time the daemon has used.
func (d *daemonProc) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100 // USER_HZ
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MB.
func (d *daemonProc) peakRSSMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// client is one keep-alive HTTP/1.1 connection. Requests are written
// straight to the socket and responses parsed with http.ReadResponse,
// so the load generator spends as little CPU per request as it can.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	head []byte
	body []byte
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and returns the status and body. The body slice
// is reused by the next call. id, when set, is sent as X-Request-ID.
func (c *client) do(method, path, ctype string, body []byte, id string) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.conn = conn
		c.br = bufio.NewReaderSize(conn, 64<<10)
	}
	h := append(c.head[:0], method...)
	h = append(h, ' ')
	h = append(h, path...)
	h = append(h, " HTTP/1.1\r\nHost: "...)
	h = append(h, c.addr...)
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	if ctype != "" {
		h = append(h, "\r\nContent-Type: "...)
		h = append(h, ctype...)
	}
	if id != "" {
		h = append(h, "\r\nX-Request-ID: "...)
		h = append(h, id...)
	}
	h = append(h, "\r\n\r\n"...)
	c.head = h
	bufs := net.Buffers{h, body}
	if _, err := bufs.WriteTo(c.conn); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	buf := bytes.NewBuffer(c.body[:0])
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.body = buf.Bytes()
	if err != nil {
		c.close()
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, c.body, nil
}

// getJSON fetches path and decodes its JSON body into v.
func (c *client) getJSON(path string, v any) error {
	st, body, err := c.do("GET", path, "", nil, "")
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, st)
	}
	return json.Unmarshal(body, v)
}

// modelGeneration returns the generation /models reports for name (0
// while the model is not resident).
func (c *client) modelGeneration(name string) (uint64, error) {
	var models []struct {
		Name string `json:"name"`
		Gen  uint64 `json:"generation"`
	}
	if err := c.getJSON("/models", &models); err != nil {
		return 0, err
	}
	for _, m := range models {
		if m.Name == name {
			return m.Gen, nil
		}
	}
	return 0, nil
}

// promValues fetches /metrics and returns the sample value of every
// unlabelled series.
func (c *client) promValues() (map[string]float64, error) {
	st, body, err := c.do("GET", "/metrics", "", nil, "")
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", st)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// gcWindow collects the daemon's GC activity from the MemStats block
// of /debug/pprof/heap?debug=1 (served with -pprof).
type gcWindow struct {
	startUnixNS         int64
	numGC0, totalAlloc0 float64
	numGC, totalAlloc   float64
	pauses              map[int64]float64 // pause end -> pause ns
}

func (c *client) memStats() (map[string]string, error) {
	st, body, err := c.do("GET", "/debug/pprof/heap?debug=1", "", nil, "")
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/pprof/heap: status %d", st)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok && strings.HasPrefix(line, "# ") {
			out[k] = v
		}
	}
	return out, nil
}

func startGCWindow(c *client) (*gcWindow, error) {
	ms, err := c.memStats()
	if err != nil {
		return nil, err
	}
	g := &gcWindow{startUnixNS: time.Now().UnixNano(), pauses: map[int64]float64{}}
	g.numGC0, _ = strconv.ParseFloat(ms["NumGC"], 64)
	g.totalAlloc0, _ = strconv.ParseFloat(ms["TotalAlloc"], 64)
	g.numGC, g.totalAlloc = g.numGC0, g.totalAlloc0
	return g, nil
}

// sample reads the MemStats block again and folds in the pauses that
// ended inside the window. PauseNs keeps the last 256 pauses, so the
// window is sampled every few seconds.
func (g *gcWindow) sample(c *client) error {
	ms, err := c.memStats()
	if err != nil {
		return err
	}
	g.numGC, _ = strconv.ParseFloat(ms["NumGC"], 64)
	g.totalAlloc, _ = strconv.ParseFloat(ms["TotalAlloc"], 64)
	ns := strings.Fields(strings.Trim(ms["PauseNs"], "[]"))
	ends := strings.Fields(strings.Trim(ms["PauseEnd"], "[]"))
	for i := range ns {
		if i >= len(ends) {
			break
		}
		end, _ := strconv.ParseInt(ends[i], 10, 64)
		p, _ := strconv.ParseFloat(ns[i], 64)
		if end > g.startUnixNS {
			g.pauses[end] = p
		}
	}
	return nil
}

// report fills the runtime.* layer metrics for ops operations.
func (g *gcWindow) report(into map[string]float64, ops int64) {
	pause := 0.0
	for _, p := range g.pauses {
		pause += p
	}
	into["runtime.gc_count"] = g.numGC - g.numGC0
	into["runtime.gc_pause_ms"] = pause / 1e6
	if ops > 0 {
		into["runtime.alloc_kb_per_op"] = (g.totalAlloc - g.totalAlloc0) / 1024 / float64(ops)
	}
}

// accessLine is the part of a pmafiad access-log line the benchmark
// reads.
type accessLine struct {
	ID       string  `json:"id"`
	Route    string  `json:"route"`
	Records  int     `json:"records"`
	Status   int     `json:"status"`
	Queue    float64 `json:"queue_seconds"`
	Decode   float64 `json:"decode_seconds"`
	Assign   float64 `json:"assign_seconds"`
	Encode   float64 `json:"encode_seconds"`
	Duration float64 `json:"duration_seconds"`
}

// readAccessLog parses every line of the access log at path.
func readAccessLog(path string) ([]accessLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []accessLine
	dec := json.NewDecoder(f)
	for {
		var l accessLine
		if err := dec.Decode(&l); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("access log %s: %w", path, err)
		}
		out = append(out, l)
	}
}

// serveLayers fills the daemon-side layer metrics from the access-log
// lines of /assign requests the benchmark sent, joined by request ID to
// the client round trips (rtt, in seconds, keyed by the same ID).
func serveLayers(into map[string]float64, lines []accessLine, rtt map[string]float64) {
	var queue, decode, kernel, encode, overhead, wire, recs []float64
	for _, l := range lines {
		r, ok := rtt[l.ID]
		if !ok || l.Route != "assign" || l.Status != http.StatusOK {
			continue
		}
		queue = append(queue, l.Queue)
		decode = append(decode, l.Decode)
		kernel = append(kernel, l.Assign)
		encode = append(encode, l.Encode)
		overhead = append(overhead, l.Duration-l.Queue-l.Decode-l.Assign-l.Encode)
		wire = append(wire, r-l.Duration)
		recs = append(recs, float64(l.Records))
	}
	into["daemon.queue_ms"] = 1e3 * median(queue)
	into["daemon.decode_ms"] = 1e3 * median(decode)
	into["assign.kernel_ms"] = 1e3 * median(kernel)
	into["daemon.encode_ms"] = 1e3 * median(encode)
	into["daemon.overhead_ms"] = 1e3 * median(overhead)
	into["http.rtt_ms"] = 1e3 * median(wire)
	into["assign.records_per_call"] = median(recs)
}
