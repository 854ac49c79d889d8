// Package sp2 is the distributed-memory message-passing machine pMAFIA
// runs on — the stand-in for the paper's 16-node IBM SP2 + MPI. SPMD
// bodies run one goroutine per rank and communicate only through the
// collectives a Comm provides (Reduce-style sums and ORs, broadcast,
// and gather-concatenate-broadcast), which is exactly the communication
// pattern Algorithms 2-6 in the paper use.
//
// The machine has two execution modes:
//
//   - Real: ranks run concurrently; collectives are plain
//     synchronization barriers. Timing is wall-clock. Use this on a
//     multicore host.
//
//   - Sim: ranks are serialized by an execution baton, so each rank's
//     compute time between communication points can be measured
//     honestly even on a single core; collectives advance every rank's
//     virtual clock to the global maximum plus a modeled communication
//     cost (ceil(log2 p) stages of latency + bytes/bandwidth, twice
//     that for gather+broadcast). The per-rank virtual clocks are the
//     basis of every speedup figure reproduced from the paper.
//
// Defaults for the cost model follow the paper's SP2 description
// (switch latency 29.3 µs — the paper prints "milliseconds", an
// evident typo for the SP2 switch — and 102 MB/s bandwidth).
package sp2

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pmafia/internal/faults"
	"pmafia/internal/obs"
)

// Mode selects between honest-virtual-time simulation and real
// concurrent execution.
type Mode int

const (
	// Sim serializes ranks and accounts virtual time (default).
	Sim Mode = iota
	// Real runs ranks concurrently and reports wall-clock time.
	Real
)

// Config describes the machine.
type Config struct {
	// Procs is the number of ranks p (>= 1).
	Procs int
	// Mode selects Sim (default) or Real execution.
	Mode Mode
	// LatencySec is the per-message-stage latency α. Default 29.3 µs.
	LatencySec float64
	// BandwidthBytesPerSec is the link bandwidth. Default 102 MB/s.
	BandwidthBytesPerSec float64
	// Recorder, when non-nil, receives the run's observability stream:
	// Run binds each rank's span clock to the machine (virtual time in
	// Sim mode, wall time in Real mode) and every collective charges its
	// modeled cost into the rank's innermost open span.
	Recorder *obs.Recorder
	// Ctx, when non-nil, cancels the run: cancellation poisons the
	// machine, releasing every rank blocked in a collective, and the
	// context's error is returned from Run.
	Ctx context.Context
	// CollectiveTimeout arms the failure detector: when some ranks have
	// been waiting in a collective for longer than this while others
	// never arrived, the machine is poisoned with a *RankError naming a
	// missing rank (wrapping ErrStalled) instead of hanging forever.
	// Zero disables detection — the paper's perfect-machine assumption.
	CollectiveTimeout time.Duration
	// Faults, when non-nil, is consulted at every collective entry and
	// injects deterministic rank crashes and stalls (see
	// internal/faults). Nil injects nothing.
	Faults *faults.Plan
}

func (c *Config) validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("sp2: Procs %d < 1", c.Procs)
	}
	if c.LatencySec == 0 {
		c.LatencySec = 29.3e-6
	}
	if c.BandwidthBytesPerSec == 0 {
		c.BandwidthBytesPerSec = 102e6
	}
	if c.LatencySec < 0 || c.BandwidthBytesPerSec <= 0 {
		return fmt.Errorf("sp2: invalid cost model (latency %v, bandwidth %v)", c.LatencySec, c.BandwidthBytesPerSec)
	}
	return nil
}

// CollectiveStats is the per-kind breakdown of one collective family.
type CollectiveStats struct {
	// Count is the number of collectives of this kind performed.
	Count int64
	// Bytes is the payload bytes moved, summed over collective stages.
	Bytes int64
	// Seconds is the modeled communication time charged.
	Seconds float64
}

// Collective kinds reported in Report.ByKind. The values are shared
// with the observability layer (obs spells per-kind counters and
// message events with the same strings).
const (
	KindReduce  = obs.KindReduce  // the Allreduce* family
	KindBcast   = obs.KindBcast   // BcastBytes
	KindGather  = obs.KindGather  // GatherConcatBcast
	KindBarrier = obs.KindBarrier // Barrier
)

// Report summarizes a finished run.
type Report struct {
	Procs int
	Mode  Mode
	// ParallelSeconds is the modeled parallel execution time: the
	// maximum rank virtual clock in Sim mode, wall-clock in Real mode.
	ParallelSeconds float64
	// RankSeconds is each rank's virtual clock (Sim mode only).
	RankSeconds []float64
	// CommSeconds is the total communication time charged (Sim mode).
	CommSeconds float64
	// BytesMoved counts payload bytes crossing the network, summed over
	// collective stages.
	BytesMoved int64
	// Collectives counts collective operations performed.
	Collectives int64
	// ByKind breaks the three aggregates above down per collective kind
	// (KindReduce, KindBcast, KindGather, KindBarrier).
	ByKind map[string]CollectiveStats
}

// ErrStalled is wrapped by the *RankError the failure detector raises
// when a rank fails to reach a collective within CollectiveTimeout.
var ErrStalled = errors.New("sp2: rank failed to reach collective (stall detected)")

// RankError is the typed failure of one rank: which rank failed, the
// observability phase it was in (empty without a Recorder), and the
// collective ordinal at which it failed. Every failed Run returns one —
// a panicking, erroring, or stalled rank surfaces as a RankError on all
// ranks instead of a hang or a process crash.
type RankError struct {
	// Rank is the failed rank's id.
	Rank int
	// Phase is the innermost open observability span on the rank when
	// it failed ("" when no Recorder is attached).
	Phase string
	// Collective is the 0-based ordinal of the collective the rank was
	// entering when it failed; for failures between collectives it is
	// the number of collectives the rank had entered.
	Collective int64
	// Err is the underlying cause.
	Err error
}

func (e *RankError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("sp2: rank %d (phase %q, collective %d): %v", e.Rank, e.Phase, e.Collective, e.Err)
	}
	return fmt.Sprintf("sp2: rank %d (collective %d): %v", e.Rank, e.Collective, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// Recoverable reports whether a failed Run can sensibly be retried on
// a rebuilt machine: the failure is a typed per-rank fault (crash,
// panic, stall) rather than a deliberate cancellation or deadline.
// Supervised restart loops gate on this so a ^C is honored instead of
// respawned.
func Recoverable(err error) bool {
	var re *RankError
	if !errors.As(err, &re) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

type machine struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	arrived   int
	arrivedAt time.Time
	present   []bool
	gen       uint64
	failed    error
	slotsB    [][]byte
	slotsI64  [][]int64
	slotsF64  [][]float64
	slotsBol  [][]bool
	slotsU64  [][]uint64
	outB      []byte
	outI64    []int64
	outF64    []float64
	outBol    []bool
	outU64    []uint64

	vclocks []float64
	// arriveClk[r] is rank r's clock reading when it entered the
	// current collective (Sim: virtual clock; Real: wall seconds since
	// start). Maintained only when a Recorder is attached; the combiner
	// snapshots it into the recorder's collective event.
	arriveClk []float64
	resumeAt  []time.Time
	commSec   float64
	bytes     int64
	colls     int64
	byKind    map[string]*CollectiveStats
	start     time.Time

	// seq[r] counts the collectives rank r has entered; written with
	// atomics by the owning rank, read by the watchdog and recovery.
	seq []int64
	// failCh is closed when the machine is poisoned, interrupting
	// injected stalls; finCh is closed when all ranks have returned,
	// stopping the watchdog.
	failCh chan struct{}
	finCh  chan struct{}

	baton chan struct{}
}

// Comm is one rank's endpoint. It is valid only inside the body passed
// to Run and must not be shared between ranks.
type Comm struct {
	m    *machine
	rank int
}

// Rank returns this rank's id in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks p.
func (c *Comm) Size() int { return c.m.cfg.Procs }

// abort carries a poisoned-machine signal through panics so that a
// failure on one rank releases every other rank.
type abort struct{ err error }

// Run executes body on every rank of a machine configured by cfg and
// returns the timing report. If any rank's body returns an error or
// panics, every rank is released and a *RankError identifying the
// failed rank is returned; with CollectiveTimeout set, a rank that
// never reaches a collective the others are waiting in is detected and
// reported the same way instead of deadlocking the machine.
func Run(cfg Config, body func(*Comm) error) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	p := cfg.Procs
	m := &machine{
		cfg:       cfg,
		slotsB:    make([][]byte, p),
		slotsI64:  make([][]int64, p),
		slotsF64:  make([][]float64, p),
		slotsBol:  make([][]bool, p),
		slotsU64:  make([][]uint64, p),
		vclocks:   make([]float64, p),
		arriveClk: make([]float64, p),
		resumeAt:  make([]time.Time, p),
		present:   make([]bool, p),
		seq:       make([]int64, p),
		byKind:    map[string]*CollectiveStats{},
		failCh:    make(chan struct{}),
		finCh:     make(chan struct{}),
		baton:     make(chan struct{}, 1),
	}
	m.cond = sync.NewCond(&m.mu)
	m.baton <- struct{}{}

	m.start = time.Now()
	if cfg.Recorder != nil {
		cfg.Recorder.BindRanks(p, m.now)
	}
	if cfg.Ctx != nil || cfg.CollectiveTimeout > 0 {
		go m.watchdog()
	}
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{m: m, rank: rank}
			defer func() {
				if e := recover(); e != nil {
					if a, ok := e.(abort); ok {
						errs[rank] = a.err
						return
					}
					re, ok := e.(*RankError)
					if !ok {
						re = m.rankError(rank, fmt.Errorf("panic: %v", e))
					}
					errs[rank] = re
					m.poison(re)
				}
			}()
			c.beginCompute()
			err := body(c)
			c.endCompute()
			if err != nil {
				re := m.rankError(rank, err)
				errs[rank] = re
				m.poison(re)
			}
		}(r)
	}
	wg.Wait()
	close(m.finCh)

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rep := &Report{
		Procs:       p,
		Mode:        cfg.Mode,
		RankSeconds: append([]float64(nil), m.vclocks...),
		CommSeconds: m.commSec,
		BytesMoved:  m.bytes,
		Collectives: m.colls,
		ByKind:      map[string]CollectiveStats{},
	}
	for kind, st := range m.byKind {
		rep.ByKind[kind] = *st
	}
	if cfg.Mode == Sim {
		for _, v := range m.vclocks {
			if v > rep.ParallelSeconds {
				rep.ParallelSeconds = v
			}
		}
	} else {
		rep.ParallelSeconds = time.Since(m.start).Seconds()
	}
	return rep, nil
}

// now returns rank's current clock reading in seconds: the virtual
// clock in Sim mode (valid only while the rank is inside its compute
// section, which is where instrumented code runs), wall time since the
// machine started in Real mode.
func (m *machine) now(rank int) float64 {
	if m.cfg.Mode != Sim {
		return time.Since(m.start).Seconds()
	}
	m.mu.Lock()
	v := m.vclocks[rank] + time.Since(m.resumeAt[rank]).Seconds()
	m.mu.Unlock()
	return v
}

// Now returns this rank's current clock reading in seconds (see
// machine.now). It is the time base of the observability layer's
// spans.
func (c *Comm) Now() float64 { return c.m.now(c.rank) }

// rankError wraps err with the rank's failure context: its current
// observability phase and how many collectives it had entered.
func (m *machine) rankError(rank int, err error) *RankError {
	return &RankError{
		Rank:       rank,
		Phase:      m.cfg.Recorder.CurrentPhase(rank),
		Collective: atomic.LoadInt64(&m.seq[rank]),
		Err:        err,
	}
}

// poison marks the machine failed and wakes all waiters.
func (m *machine) poison(err error) {
	m.mu.Lock()
	m.poisonLocked(err)
	m.mu.Unlock()
	// Drop a baton in so blocked acquirers wake up.
	select {
	case m.baton <- struct{}{}:
	default:
	}
}

// poisonLocked is poison's core; the caller holds m.mu.
func (m *machine) poisonLocked(err error) {
	if m.failed == nil {
		m.failed = err
		close(m.failCh) // interrupt injected stalls
	}
	m.cond.Broadcast()
}

// watchdog is the machine's failure detector: it poisons the machine
// when the run's context is cancelled, and — with CollectiveTimeout set
// — when a collective rendezvous has been partially assembled for
// longer than the timeout, which means at least one rank crashed
// silently, stalled, or deadlocked and will never arrive. The paper's
// SP2/MPI runs assume this can't happen; the detector turns the
// would-be hang into a *RankError naming a missing rank.
func (m *machine) watchdog() {
	var tick <-chan time.Time
	if m.cfg.CollectiveTimeout > 0 {
		interval := m.cfg.CollectiveTimeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
	}
	var ctxDone <-chan struct{}
	if m.cfg.Ctx != nil {
		ctxDone = m.cfg.Ctx.Done()
	}
	for {
		select {
		case <-m.finCh:
			return
		case <-ctxDone:
			m.poison(m.cfg.Ctx.Err())
			ctxDone = nil // poisoned; keep draining ticks until finCh
		case <-tick:
			m.mu.Lock()
			if m.failed == nil && m.arrived > 0 && m.arrived < m.cfg.Procs &&
				time.Since(m.arrivedAt) > m.cfg.CollectiveTimeout {
				var missing []int
				for r, in := range m.present {
					if !in {
						missing = append(missing, r)
					}
				}
				err := &RankError{
					Rank:       missing[0],
					Phase:      m.cfg.Recorder.CurrentPhase(missing[0]),
					Collective: m.colls,
					Err: fmt.Errorf("ranks %v absent from collective %d after %v: %w",
						missing, m.colls, m.cfg.CollectiveTimeout, ErrStalled),
				}
				m.poisonLocked(err)
			}
			m.mu.Unlock()
		}
	}
}

// stall parks the rank for d, or until the machine is poisoned —
// whichever comes first — so an injected "dead rank" never outlives
// the run's failure detection.
func (c *Comm) stall(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.m.failCh:
	}
}

// beginCompute starts (or resumes) this rank's measured compute
// section: in Sim mode it acquires the execution baton.
func (c *Comm) beginCompute() {
	if c.m.cfg.Mode != Sim {
		return
	}
	<-c.m.baton
	c.m.mu.Lock()
	failed := c.m.failed
	c.m.resumeAt[c.rank] = time.Now()
	c.m.mu.Unlock()
	if failed != nil {
		// Put the baton back for other aborting ranks and bail.
		select {
		case c.m.baton <- struct{}{}:
		default:
		}
		panic(abort{failed})
	}
}

// endCompute stops the rank's compute timer and releases the baton.
func (c *Comm) endCompute() {
	if c.m.cfg.Mode != Sim {
		return
	}
	c.m.mu.Lock()
	c.m.vclocks[c.rank] += time.Since(c.m.resumeAt[c.rank]).Seconds()
	c.m.mu.Unlock()
	select {
	case c.m.baton <- struct{}{}:
	default:
	}
}

// stages returns ceil(log2 p), the stage count of a tree collective.
func stages(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p)))
}

// collective runs one rendezvous: every rank deposits, the last arrival
// combines and charges the communication cost, then everyone collects.
// An injected fault fires here, after the rank leaves its compute
// section but before it joins the rendezvous — the window in which a
// real node dies or straggles "at" an MPI collective.
func (c *Comm) collective(kind string, msgBytes int, costStages float64, deposit, combine func(m *machine)) {
	m := c.m
	idx := atomic.AddInt64(&m.seq[c.rank], 1) - 1
	c.endCompute()
	if fk, d, ok := m.cfg.Faults.Collective(c.rank, idx); ok {
		switch fk {
		case faults.RankCrash:
			panic(&RankError{
				Rank:       c.rank,
				Phase:      m.cfg.Recorder.CurrentPhase(c.rank),
				Collective: idx,
				Err:        faults.ErrCrash,
			})
		case faults.RankStall:
			c.stall(d)
		}
	}

	m.mu.Lock()
	if m.failed != nil {
		m.mu.Unlock()
		panic(abort{m.failed})
	}
	deposit(m)
	if m.cfg.Recorder != nil {
		// Arrival clock for the message/critical-path event stream: the
		// rank's virtual clock (already advanced by endCompute above) in
		// Sim mode, wall time in Real mode.
		if m.cfg.Mode == Sim {
			m.arriveClk[c.rank] = m.vclocks[c.rank]
		} else {
			m.arriveClk[c.rank] = time.Since(m.start).Seconds()
		}
	}
	myGen := m.gen
	if m.arrived == 0 {
		m.arrivedAt = time.Now()
	}
	m.present[c.rank] = true
	m.arrived++
	if m.arrived == m.cfg.Procs {
		// A combine failure (e.g. mismatched vector lengths) must
		// poison the machine rather than unwind with the lock held,
		// which would strand the waiting ranks.
		func() {
			defer func() {
				if e := recover(); e != nil {
					err, ok := e.(abort)
					if !ok {
						err = abort{fmt.Errorf("sp2: combine panicked: %v", e)}
					}
					if m.failed == nil {
						m.failed = err.err
					}
				}
			}()
			combine(m)
		}()
		if m.failed != nil {
			m.cond.Broadcast()
			m.mu.Unlock()
			panic(abort{m.failed})
		}
		// Charge communication: everyone synchronizes to the maximum
		// virtual clock plus the modeled cost of the collective.
		cost := costStages * (m.cfg.LatencySec + float64(msgBytes)/m.cfg.BandwidthBytesPerSec)
		maxV := 0.0
		for _, v := range m.vclocks {
			if v > maxV {
				maxV = v
			}
		}
		for i := range m.vclocks {
			m.vclocks[i] = maxV + cost
		}
		stageBytes := int64(float64(msgBytes) * costStages)
		m.commSec += cost
		m.bytes += stageBytes
		m.colls++
		st := m.byKind[kind]
		if st == nil {
			st = &CollectiveStats{}
			m.byKind[kind] = st
		}
		st.Count++
		st.Bytes += stageBytes
		st.Seconds += cost
		if rec := m.cfg.Recorder; rec != nil {
			// Every rank is parked in this rendezvous, so charging the
			// cost into each rank's innermost open span is race-free:
			// the parked ranks reacquire m.mu before resuming.
			for r := 0; r < m.cfg.Procs; r++ {
				rec.Comm(r, kind, stageBytes, cost)
			}
			// One collective event with per-rank arrival clocks; the
			// recorder expands it into the per-stage tree messages the
			// Chrome trace draws as send→recv flow arrows. Start is the
			// last arrival (communication cannot begin earlier); Depart
			// is the synchronized clock every rank resumes at.
			start, depart := maxV, maxV+cost
			if m.cfg.Mode != Sim {
				// Real-mode collectives are plain barriers: the window
				// is the wall instant of the rendezvous, the cost a
				// model annotation.
				start = 0
				for _, at := range m.arriveClk {
					if at > start {
						start = at
					}
				}
				depart = time.Since(m.start).Seconds()
				if depart < start {
					depart = start
				}
			}
			rec.Collective(obs.CollRecord{
				Kind: kind, Steps: int(costStages),
				PayloadBytes: int64(msgBytes), Bytes: stageBytes,
				Seconds: cost,
				Arrive:  append([]float64(nil), m.arriveClk...),
				Start:   start, Depart: depart,
			})
		}
		m.arrived = 0
		for i := range m.present {
			m.present[i] = false
		}
		m.gen++
		m.cond.Broadcast()
	} else {
		for m.gen == myGen && m.failed == nil {
			m.cond.Wait()
		}
		if m.failed != nil {
			m.mu.Unlock()
			panic(abort{m.failed})
		}
	}
	m.mu.Unlock()

	c.beginCompute()
}

// Barrier synchronizes all ranks (and, in Sim mode, their clocks).
func (c *Comm) Barrier() {
	c.collective(KindBarrier, 0, stages(c.Size()), func(*machine) {}, func(*machine) {})
}

// AllreduceSumI64 replaces x on every rank with the element-wise sum of
// all ranks' x. All ranks must pass slices of identical length. This is
// the paper's Reduce-with-sum used for global histograms and CDU
// populations.
func (c *Comm) AllreduceSumI64(x []int64) {
	c.collective(KindReduce, 8*len(x), stages(c.Size()),
		func(m *machine) { m.slotsI64[c.rank] = x },
		func(m *machine) {
			out := make([]int64, len(x))
			for _, s := range m.slotsI64 {
				if len(s) != len(out) {
					panic(abort{fmt.Errorf("sp2: AllreduceSumI64 length mismatch: %d vs %d", len(s), len(out))})
				}
				for i, v := range s {
					out[i] += v
				}
			}
			m.outI64 = out
		})
	copy(x, c.m.outI64)
}

// AllreduceOrBool replaces x with the element-wise OR across ranks,
// used to merge the per-rank "combined" and "repeated" masks.
func (c *Comm) AllreduceOrBool(x []bool) {
	c.collective(KindReduce, len(x), stages(c.Size()),
		func(m *machine) { m.slotsBol[c.rank] = x },
		func(m *machine) {
			out := make([]bool, len(x))
			for _, s := range m.slotsBol {
				if len(s) != len(out) {
					panic(abort{fmt.Errorf("sp2: AllreduceOrBool length mismatch: %d vs %d", len(s), len(out))})
				}
				for i, v := range s {
					if v {
						out[i] = true
					}
				}
			}
			m.outBol = out
		})
	copy(x, c.m.outBol)
}

// AllreduceOrU64 replaces x with the element-wise bitwise OR across
// ranks — the bitset form of AllreduceOrBool. Packing marks 64 to the
// word cuts the collective payload 8x against the []bool encoding,
// which matters because the repeat-elimination masks scale with the
// raw CDU count.
func (c *Comm) AllreduceOrU64(x []uint64) {
	c.collective(KindReduce, 8*len(x), stages(c.Size()),
		func(m *machine) { m.slotsU64[c.rank] = x },
		func(m *machine) {
			out := make([]uint64, len(x))
			for _, s := range m.slotsU64 {
				if len(s) != len(out) {
					panic(abort{fmt.Errorf("sp2: AllreduceOrU64 length mismatch: %d vs %d", len(s), len(out))})
				}
				for i, v := range s {
					out[i] |= v
				}
			}
			m.outU64 = out
		})
	copy(x, c.m.outU64)
}

// GatherConcatBcast gathers every rank's byte payload on the parent,
// concatenates them in rank order, and broadcasts the result — the
// paper's pattern for assembling the global CDU dimension and bin
// arrays (Algorithm 3). Payloads may have different lengths.
func (c *Comm) GatherConcatBcast(local []byte) []byte {
	c.collective(KindGather, len(local), 2*stages(c.Size()),
		func(m *machine) { m.slotsB[c.rank] = local },
		func(m *machine) {
			total := 0
			for _, s := range m.slotsB {
				total += len(s)
			}
			out := make([]byte, 0, total)
			for _, s := range m.slotsB {
				out = append(out, s...)
			}
			m.outB = out
		})
	return append([]byte(nil), c.m.outB...)
}

// BcastBytes distributes root's payload to every rank; non-root ranks
// pass nil and receive a copy.
func (c *Comm) BcastBytes(root int, data []byte) []byte {
	size := 0
	if c.rank == root {
		size = len(data)
	}
	c.collective(KindBcast, size, stages(c.Size()),
		func(m *machine) {
			if c.rank == root {
				m.outB = data
			}
		},
		func(*machine) {})
	return append([]byte(nil), c.m.outB...)
}

// AllreduceMaxF64 replaces x with the element-wise maximum across
// ranks.
func (c *Comm) AllreduceMaxF64(x []float64) {
	c.allreduceF64(x, func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	})
}

// AllreduceMinF64 replaces x with the element-wise minimum across
// ranks.
func (c *Comm) AllreduceMinF64(x []float64) {
	c.allreduceF64(x, func(a, b float64) float64 {
		if b < a {
			return b
		}
		return a
	})
}

func (c *Comm) allreduceF64(x []float64, op func(a, b float64) float64) {
	c.collective(KindReduce, 8*len(x), stages(c.Size()),
		func(m *machine) { m.slotsF64[c.rank] = x },
		func(m *machine) {
			out := append([]float64(nil), m.slotsF64[0]...)
			for _, s := range m.slotsF64[1:] {
				if len(s) != len(out) {
					panic(abort{fmt.Errorf("sp2: allreduceF64 length mismatch: %d vs %d", len(s), len(out))})
				}
				for i, v := range s {
					out[i] = op(out[i], v)
				}
			}
			m.outF64 = out
		})
	copy(x, c.m.outF64)
}
