package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostWindow measures hypervisor CPU steal over a run from /proc/stat.
type hostWindow struct {
	steal0, total0 float64
}

func startHostWindow() *hostWindow {
	s, t := procStatCPU()
	return &hostWindow{steal0: s, total0: t}
}

// end returns the share of CPU time stolen since the window started,
// in percent, and the 1-minute load average.
func (h *hostWindow) end() (stealPct, load1 float64) {
	s, t := procStatCPU()
	if t > h.total0 {
		stealPct = 100 * (s - h.steal0) / (t - h.total0)
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return stealPct, load1
}

// procStatCPU reads the steal and total jiffies of the aggregate cpu
// line of /proc/stat (zeros where the file is unavailable).
func procStatCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// cpuSample is one reading of the aggregate cpu line of /proc/stat.
type cpuSample struct{ steal, total float64 }

func readCPU() cpuSample {
	s, t := procStatCPU()
	return cpuSample{s, t}
}

// stealSince is the share of CPU time stolen from the host since a, in
// percent.
func stealSince(a cpuSample) float64 {
	b := readCPU()
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}

// stealMeter records the host's steal share in each second of a window.
type stealMeter struct {
	perSecond  []float64 // written by the sampler goroutine, read after done
	stop, done chan struct{}
}

// startStealMeter samples steal once a second from start on.
func startStealMeter(start time.Time) *stealMeter {
	m := &stealMeter{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		prev := readCPU()
		for i := 1; ; i++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(i) * time.Second)))
			select {
			case <-m.stop:
				t.Stop()
				return
			case <-t.C:
			}
			m.perSecond = append(m.perSecond, stealSince(prev))
			prev = readCPU()
		}
	}()
	return m
}

// end stops the meter and returns the steal share of each whole second.
func (m *stealMeter) end() []float64 {
	close(m.stop)
	<-m.done
	return m.perSecond
}

// quietQuarter returns, in ascending order, the indices of the quarter
// of the samples (rounded up) taken under the least steal. Steal comes
// from other guests on the host, never from the code measured, so
// leaving out the samples it hit most removes host noise without
// hiding a slower program: that slows every sample alike.
func quietQuarter(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+3)/4]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the indices idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// cpuModel returns the host's CPU model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfCPU returns the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runContext describes the conditions a run was taken under, so runs
// taken under interference show in the output.
func runContext(o *options, stealPct, load1 float64) map[string]any {
	return map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs_bench":  runtime.GOMAXPROCS(0),
		"gomaxprocs_daemon": childGOMAXPROCS(),
		"go_version":        runtime.Version(),
		"cpu_model":         cpuModel(),
		"host.steal_pct":    stealPct,
		"host.load1":        load1,
	}
}

// childGOMAXPROCS is the GOMAXPROCS a Go child started with this
// process's environment runs at: $GOMAXPROCS when set, else the CPU
// count.
func childGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs is sorted in place. +Inf
// entries (failed operations) sort last.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(xs) {
		hi = len(xs) - 1
	}
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[hi]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[hi]-xs[lo])
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}
