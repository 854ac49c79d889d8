package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pmafia/internal/tabular"
)

// traceEvent is one entry of the Chrome trace_event format ("JSON
// object format"): complete events carry ph "X" with microsecond ts
// and dur; metadata events carry ph "M" and name the tracks; flow
// events carry ph "s"/"f" with a shared id and draw the send→recv
// arrows; counter events carry ph "C" with the sampled value in args.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	ID   int64          `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceDoc struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes every recorded span as a Chrome trace_event
// JSON document: one process, one thread (track) per rank, complete
// ("X") events in microseconds, flow ("s"/"f") event pairs for every
// modeled collective message (the arrows connecting rank tracks:
// start on the sender's track, end with bp "e" on the receiver's so
// the viewer binds the arrowhead to the enclosing phase slice), and
// counter ("C") events replaying the sampled counters' running
// totals. The output opens directly in chrome://tracing or
// https://ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: nil recorder")
	}
	r.mu.Lock()
	var events []traceEvent
	for rank, rs := range r.ranks {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
		for _, s := range rs.spans {
			ev := traceEvent{
				Name: s.Name, Cat: "phase", Ph: "X",
				Ts: s.Start * 1e6, Dur: s.Duration() * 1e6,
				Pid: 0, Tid: rank,
			}
			if s.Level > 0 || s.CommBytes > 0 || s.CommSeconds > 0 {
				ev.Args = map[string]any{}
				if s.Level > 0 {
					ev.Args["level"] = s.Level
				}
				if s.CommSeconds > 0 {
					ev.Args["comm_us"] = s.CommSeconds * 1e6
				}
				if s.CommBytes > 0 {
					ev.Args["comm_bytes"] = s.CommBytes
				}
			}
			events = append(events, ev)
		}
	}
	for _, msg := range r.msgs {
		args := map[string]any{
			"bytes": msg.Bytes, "step": msg.Step, "coll": msg.Coll,
			"src": msg.Src, "dst": msg.Dst,
		}
		events = append(events,
			traceEvent{
				Name: msg.Kind, Cat: "msg", Ph: "s", ID: msg.ID,
				Ts: msg.Start * 1e6, Pid: 0, Tid: msg.Src, Args: args,
			},
			traceEvent{
				Name: msg.Kind, Cat: "msg", Ph: "f", ID: msg.ID, Bp: "e",
				Ts: msg.End * 1e6, Pid: 0, Tid: msg.Dst, Args: args,
			})
	}
	for _, smp := range r.samples {
		events = append(events, traceEvent{
			Name: smp.name, Cat: "counter", Ph: "C",
			Ts: smp.ts * 1e6, Pid: 0, Tid: 0,
			Args: map[string]any{"value": smp.val},
		})
	}
	r.mu.Unlock()
	return writeTraceDoc(w, "pmafia", events)
}

// writeTraceDoc writes one Chrome trace_event document: the
// process_name metadata event naming process, then events.
func writeTraceDoc(w io.Writer, process string, events []traceEvent) error {
	doc := traceDoc{DisplayTimeUnit: "ms", TraceEvents: append([]traceEvent{{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": process},
	}}, events...)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// PhaseSummary aggregates the spans sharing one (name, level) pair
// across all ranks.
type PhaseSummary struct {
	Name        string  `json:"name"`
	Level       int     `json:"level,omitempty"`
	Spans       int     `json:"spans"`
	Seconds     float64 `json:"seconds"`
	CommSeconds float64 `json:"comm_seconds"`
	CommBytes   int64   `json:"comm_bytes"`
	MaxSeconds  float64 `json:"max_rank_seconds"`
}

// Metrics is the flat export of a recorder: summed counters, per-rank
// counters, and per-(phase, level) span aggregates.
type Metrics struct {
	Ranks    int                `json:"ranks"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	PerRank  []map[string]int64 `json:"per_rank_counters"`
	Phases   []PhaseSummary     `json:"phases"`
}

// Metrics snapshots the recorder.
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return &Metrics{Counters: map[string]int64{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := &Metrics{Ranks: len(r.ranks), Counters: map[string]int64{}}
	for k, v := range r.global {
		m.Counters[k] += v
	}
	if len(r.gauges) > 0 {
		m.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			m.Gauges[k] = v
		}
	}
	type key struct {
		name  string
		level int
	}
	agg := map[key]*PhaseSummary{}
	var order []key
	for _, rs := range r.ranks {
		pr := map[string]int64{}
		for k, v := range rs.ctrs {
			pr[k] = v
			m.Counters[k] += v
		}
		m.PerRank = append(m.PerRank, pr)
		perRankSec := map[key]float64{}
		for _, s := range rs.spans {
			k := key{s.Name, s.Level}
			ps := agg[k]
			if ps == nil {
				ps = &PhaseSummary{Name: s.Name, Level: s.Level}
				agg[k] = ps
				order = append(order, k)
			}
			ps.Spans++
			ps.Seconds += s.Duration()
			ps.CommSeconds += s.CommSeconds
			ps.CommBytes += s.CommBytes
			perRankSec[k] += s.Duration()
		}
		for k, sec := range perRankSec {
			if sec > agg[k].MaxSeconds {
				agg[k].MaxSeconds = sec
			}
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].name != order[j].name {
			return order[i].name < order[j].name
		}
		return order[i].level < order[j].level
	})
	for _, k := range order {
		m.Phases = append(m.Phases, *agg[k])
	}
	return m
}

// WriteMetricsJSON writes the Metrics snapshot as indented JSON.
func (r *Recorder) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r.Metrics())
}

// PhaseTable renders the per-phase aggregates as a table, ordered by
// descending total time so the expensive phases lead.
func (r *Recorder) PhaseTable() *tabular.Table {
	m := r.Metrics()
	sort.SliceStable(m.Phases, func(i, j int) bool { return m.Phases[i].Seconds > m.Phases[j].Seconds })
	t := tabular.New("Per-phase breakdown (all ranks)",
		"phase", "level", "spans", "seconds", "max rank s", "comm s", "comm bytes")
	for _, p := range m.Phases {
		lvl := "-"
		if p.Level > 0 {
			lvl = tabular.I(p.Level)
		}
		t.AddRow(p.Name, lvl, tabular.I(p.Spans), tabular.F(p.Seconds),
			tabular.F(p.MaxSeconds), tabular.F(p.CommSeconds), tabular.I(int(p.CommBytes)))
	}
	return t
}
