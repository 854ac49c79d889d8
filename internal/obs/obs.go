// Package obs is the observability layer of the reproduction: named,
// nestable phase spans and flat counters recorded per rank of the sp2
// machine, exported as a Chrome trace_event file (open it in
// chrome://tracing or Perfetto — one row per rank), a flat metrics JSON
// document, and a human-readable per-phase table.
//
// The recorder is pay-for-use. Every method has a nil-receiver no-op
// fast path, so instrumented code calls through a possibly-nil
// *Recorder without allocating; a run with no recorder attached costs
// a pointer test per instrumentation point.
//
// Time is whatever the bound clocks say. sp2.Run binds each rank's
// clock when Config.Recorder is set: in Sim mode that is the rank's
// *virtual* clock, so traces of simulated runs are exact (span
// durations include the modeled communication and synchronization
// jumps of collectives, and per rank they add up to the machine
// report's RankSeconds); in Real mode it is wall-clock time since the
// machine started. Spans opened for an unbound rank fall back to a
// wall clock anchored at the recorder's creation.
package obs

import (
	"sync"
	"time"
)

// Span is one recorded phase on one rank. Fields are written while the
// span is open and must be read only after the run completes (or under
// the recorder's snapshot methods).
type Span struct {
	// Name is the phase name (e.g. "populate").
	Name string
	// Rank is the machine rank the span was recorded on.
	Rank int
	// Level is the bottom-up level k the span belongs to, 0 when the
	// phase is not level-scoped.
	Level int
	// Depth is the nesting depth (0 = top-level).
	Depth int
	// Start and Stop are clock readings in seconds.
	Start, Stop float64
	// CommSeconds and CommBytes are the modeled communication cost and
	// payload bytes of the collectives that completed inside this span
	// while it was the innermost open span on its rank.
	CommSeconds float64
	CommBytes   int64

	r    *Recorder
	open bool
}

// Duration returns Stop-Start (0 for a still-open span).
func (s *Span) Duration() float64 {
	if s == nil || s.open {
		return 0
	}
	return s.Stop - s.Start
}

// rankState is one rank's recording track.
type rankState struct {
	clock func() float64
	spans []*Span // all spans in start order
	stack []*Span // currently open spans, innermost last
	ctrs  map[string]int64
	hists map[string]*Histogram
}

func newRankState() *rankState {
	return &rankState{ctrs: map[string]int64{}, hists: map[string]*Histogram{}}
}

// MsgEvent is one modeled point-to-point message of a collective: a
// step of the collective's communication tree, carrying the payload
// from Src to Dst. Send and receive share the event (and its ID), which
// is the send↔recv correlation the Chrome flow-event export draws as an
// arrow between the two rank tracks.
type MsgEvent struct {
	// ID is the machine-wide correlation id, unique per message.
	ID int64 `json:"id"`
	// Coll is the ordinal of the collective this message belongs to.
	Coll int `json:"coll"`
	// Kind is the collective kind (sp2.KindReduce, ...).
	Kind string `json:"kind"`
	// Step is the tree stage within the collective (0-based).
	Step int `json:"step"`
	// Src and Dst are the sending and receiving ranks.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Bytes is the message payload.
	Bytes int64 `json:"bytes"`
	// Start is the send time on Src's clock, End the receive time on
	// Dst's clock. After a collective both clocks agree (the rendezvous
	// synchronizes them), so the pair is consistent by construction.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// CollRecord describes one completed collective rendezvous to the
// recorder. sp2's combiner fills it in while every rank is parked
// inside the collective.
type CollRecord struct {
	// Kind is the collective kind (sp2.KindReduce, ...).
	Kind string
	// Steps is the number of tree stages the cost model charged
	// (ceil(log2 p) for reduce/bcast/barrier, twice that for gather).
	Steps int
	// PayloadBytes is the payload carried per stage message.
	PayloadBytes int64
	// Bytes is the total payload moved, summed over stages — the same
	// figure the machine report and comm counters use.
	Bytes int64
	// Seconds is the modeled communication cost charged.
	Seconds float64
	// Arrive is each rank's clock when it entered the collective. The
	// recorder keeps the slice; pass an owned copy.
	Arrive []float64
	// Start is when communication begins (the last arrival's clock) and
	// Depart the synchronized clock every rank resumes at.
	Start, Depart float64
}

// CollEvent is a recorded collective: the CollRecord plus its ordinal.
type CollEvent struct {
	Seq int
	CollRecord
}

// ctrSample is one time-stamped observation of a sampled counter's
// running total (see names.go: sampled).
type ctrSample struct {
	ts   float64
	name string
	val  int64
}

// Recorder collects spans and counters for a run. A single mutex
// serializes all mutation: instrumentation points are phase- and
// chunk-granular, far too coarse for the lock to matter, and it keeps
// concurrent Real-mode ranks race-free by construction.
type Recorder struct {
	mu      sync.Mutex
	epoch   time.Time
	ranks   []*rankState
	global  map[string]int64
	colls   []*CollEvent
	msgs    []MsgEvent
	samples []ctrSample
	nextMsg int64
	// exemplars holds one exemplar per (histogram name, bucket) —
	// see exemplar.go. Lazily allocated: nil until SetExemplar runs.
	exemplars map[string][]Exemplar
	// gauges holds last-value-wins point-in-time readings (staleness,
	// queue depth). Machine-global: gauges have no rank identity.
	// Lazily allocated: nil until SetGauge runs.
	gauges map[string]float64
}

// New creates an empty recorder.
func New() *Recorder {
	return &Recorder{epoch: time.Now(), global: map[string]int64{}}
}

// BindRanks sizes the per-rank tracks to p ranks and installs their
// clock. sp2.Run calls this before launching rank goroutines; binding
// while spans are being recorded is not supported.
func (r *Recorder) BindRanks(p int, clock func(rank int) float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.ranks) < p {
		r.ranks = append(r.ranks, newRankState())
	}
	for i := 0; i < p; i++ {
		rank := i
		r.ranks[i].clock = func() float64 { return clock(rank) }
	}
}

// rank returns the track for rank, growing the track table with
// wall-clocked states for ranks never bound. Caller holds r.mu.
func (r *Recorder) rank(rank int) *rankState {
	if rank < 0 {
		rank = 0
	}
	for len(r.ranks) <= rank {
		r.ranks = append(r.ranks, newRankState())
	}
	rs := r.ranks[rank]
	if rs.clock == nil {
		rs.clock = func() float64 { return time.Since(r.epoch).Seconds() }
	}
	return rs
}

// Start opens a span named name on rank, nested inside the rank's
// innermost open span. Returns nil (a no-op span) on a nil recorder.
func (r *Recorder) Start(rank int, name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.rank(rank)
	s := &Span{Name: name, Rank: rank, Depth: len(rs.stack), Start: rs.clock(), r: r, open: true}
	rs.spans = append(rs.spans, s)
	rs.stack = append(rs.stack, s)
	return s
}

// SetLevel labels the span with the bottom-up level k and returns the
// span for chaining.
func (s *Span) SetLevel(k int) *Span {
	if s == nil {
		return nil
	}
	s.r.mu.Lock()
	s.Level = k
	s.r.mu.Unlock()
	return s
}

// End closes the span, reading the rank clock. Ending an already-ended
// span is a no-op; ending out of order also closes the spans nested
// inside it.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.r
	r.mu.Lock()
	defer r.mu.Unlock()
	if !s.open {
		return
	}
	rs := r.rank(s.Rank)
	now := rs.clock()
	for i := len(rs.stack) - 1; i >= 0; i-- {
		sp := rs.stack[i]
		sp.Stop = now
		sp.open = false
		if sp == s {
			rs.stack = rs.stack[:i]
			return
		}
	}
	// s was not on the stack (already popped by an enclosing End).
	s.Stop = now
	s.open = false
}

// Add bumps rank-local counter name by delta. Counters in the sampled
// set (names.go) also record a time-stamped sample of the running total
// on the rank's clock for the trace export.
func (r *Recorder) Add(rank int, name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	rs := r.rank(rank)
	rs.ctrs[name] += delta
	if sampled[name] {
		r.sampleLocked(rs.clock(), name)
	}
	r.mu.Unlock()
}

// AddGlobal bumps a machine-global counter (used by code that has no
// rank identity, such as shared file scanners). Sampled counters record
// their sample on the recorder's wall clock: global emitters (e.g. a
// scanner over a shared file) have no rank clock, so in Sim mode these
// samples are wall-anchored, not virtual — see the package README.
func (r *Recorder) AddGlobal(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.global[name] += delta
	if sampled[name] {
		r.sampleLocked(time.Since(r.epoch).Seconds(), name)
	}
	r.mu.Unlock()
}

// sampleLocked appends a sample of name's current machine-wide total.
// Caller holds r.mu.
func (r *Recorder) sampleLocked(ts float64, name string) {
	v := r.global[name]
	for _, rs := range r.ranks {
		v += rs.ctrs[name]
	}
	r.samples = append(r.samples, ctrSample{ts: ts, name: name, val: v})
}

// SetGauge records the current value of gauge name, replacing any
// previous reading. Unlike counters, gauges move in both directions —
// they report a state (records pending, seconds stale), not a total.
func (r *Recorder) SetGauge(name string, value float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.gauges == nil {
		r.gauges = map[string]float64{}
	}
	r.gauges[name] = value
	r.mu.Unlock()
}

// Gauge returns the last value set for gauge name (0 if never set).
func (r *Recorder) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Gauges snapshots every gauge that has been set.
func (r *Recorder) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gauges) == 0 {
		return nil
	}
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Comm attributes one completed collective to rank: its modeled cost
// and payload bytes are charged to the rank's innermost open span and
// mirrored into per-kind counters. sp2's combiner calls this for every
// rank while all ranks are parked inside the collective, which makes
// the cross-goroutine write safe (the parked ranks synchronize on the
// machine mutex before touching their own track again).
func (r *Recorder) Comm(rank int, kind string, bytes int64, seconds float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.rank(rank)
	if n := len(rs.stack); n > 0 {
		sp := rs.stack[n-1]
		sp.CommSeconds += seconds
		sp.CommBytes += bytes
	}
	rs.ctrs[CommCountCounter(kind)]++
	rs.ctrs[CommBytesCounter(kind)] += bytes
}

// Collective records one completed collective rendezvous and
// synthesizes the per-stage point-to-point messages of its modeled
// communication tree (see tree.go). sp2's combiner calls this once per
// collective while all ranks are parked inside it.
func (r *Recorder) Collective(ev CollRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ce := &CollEvent{Seq: len(r.colls), CollRecord: ev}
	r.colls = append(r.colls, ce)
	r.msgs = append(r.msgs, r.treeMessagesLocked(ce)...)
}

// Collectives returns the recorded collective events in machine order.
// The slice is a snapshot; read it after the run completes.
func (r *Recorder) Collectives() []*CollEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*CollEvent(nil), r.colls...)
}

// Messages returns every recorded message event in emission order.
func (r *Recorder) Messages() []MsgEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]MsgEvent(nil), r.msgs...)
}

// PhaseStatus is one rank's live position in the run: the innermost
// open span (if any) and when it started on the rank's clock.
type PhaseStatus struct {
	Rank  int     `json:"rank"`
	Phase string  `json:"phase"`
	Level int     `json:"level,omitempty"`
	Since float64 `json:"since"`
	Depth int     `json:"depth"`
}

// CurrentPhases snapshots the innermost open span of every rank — the
// live "where is the machine right now" view the telemetry server
// serves. Ranks with no open span report an empty Phase.
func (r *Recorder) CurrentPhases() []PhaseStatus {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseStatus, len(r.ranks))
	for rank, rs := range r.ranks {
		out[rank] = PhaseStatus{Rank: rank}
		if n := len(rs.stack); n > 0 {
			sp := rs.stack[n-1]
			out[rank].Phase = sp.Name
			out[rank].Level = sp.Level
			out[rank].Since = sp.Start
			out[rank].Depth = sp.Depth
		}
	}
	return out
}

// CurrentPhase returns the name of rank's innermost open span, or ""
// when the rank has no open span (or on a nil recorder). The sp2
// machine uses it to label failures with the phase the rank died in.
func (r *Recorder) CurrentPhase(rank int) string {
	if r == nil || rank < 0 {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank >= len(r.ranks) {
		return ""
	}
	if stack := r.ranks[rank].stack; len(stack) > 0 {
		return stack[len(stack)-1].Name
	}
	return ""
}

// Ranks returns the number of rank tracks recorded.
func (r *Recorder) Ranks() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ranks)
}

// Spans returns rank's spans in start order. The returned slice is a
// snapshot; the spans themselves are shared, so read them only after
// the run completes.
func (r *Recorder) Spans(rank int) []*Span {
	if r == nil || rank < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if rank >= len(r.ranks) {
		return nil
	}
	return append([]*Span(nil), r.ranks[rank].spans...)
}

// Counter returns the summed value of counter name over every rank
// plus the global space.
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.global[name]
	for _, rs := range r.ranks {
		v += rs.ctrs[name]
	}
	return v
}
