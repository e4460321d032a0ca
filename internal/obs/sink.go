package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// wireEvent is the documented JSONL schema (one object per line).
// Required fields: type, ts, name; span is additionally required on
// begin/end lines. Omitted numeric fields mean 0; omitted attrs mean
// none. ValidateJSONL enforces exactly this contract.
type wireEvent struct {
	Type   string         `json:"type"`
	TS     int64          `json:"ts"`
	Name   string         `json:"name"`
	Span   uint64         `json:"span,omitempty"`
	Parent uint64         `json:"parent,omitempty"`
	Dur    int64          `json:"dur,omitempty"`
	Value  int64          `json:"value,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// wire converts an event to its JSONL form; every JSONL writer in this
// package encodes through it.
func wire(ev Event) wireEvent {
	return wireEvent{
		Type: ev.Type, TS: ev.TS, Name: ev.Name, Span: ev.Span,
		Parent: ev.Parent, Dur: ev.Dur, Value: ev.Value, Attrs: attrMap(ev.Attrs),
	}
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		if a.IsStr {
			m[a.Key] = a.Str
		} else {
			m[a.Key] = a.Int
		}
	}
	return m
}

// MarshalEvent encodes one event in the documented JSONL wire schema
// (one JSON object, no trailing newline). It exists for sinks that
// stream events outside a JSONLSink — the verification daemon's SSE
// fan-out re-encodes per subscriber-visible line and must stay
// bit-compatible with what ValidateJSONL accepts.
func MarshalEvent(ev Event) ([]byte, error) {
	return json.Marshal(wire(ev))
}

// JSONLSink streams every event as one JSON line (the wireEvent
// schema). It buffers; Close flushes.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // optional underlying closer
	enc *json.Encoder
	err error
}

// NewJSONLSink writes JSONL to w. If w is an io.Closer, Close closes it
// after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes one line.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(wire(ev))
}

// Close flushes the buffer (and closes the underlying writer when it is
// closeable), reporting the first error seen.
func (s *JSONLSink) Close() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// ChromeSink buffers the whole trace and, on Close, writes Chrome
// trace_event JSON ({"traceEvents": [...]}) loadable in chrome://tracing
// and Perfetto. Spans become complete ("X") events; counters and gauges
// become counter ("C") tracks; instants become thread-scoped "i" marks.
//
// trace_event nesting is positional — events on one pid/tid lane nest
// by time containment — while obs spans nest by parent id across
// goroutines (parallel miter proofs overlap in time). Close therefore
// lays spans out on synthetic "thread" lanes: each span goes on its
// parent's lane when it fits strictly inside whatever is open there,
// otherwise on the first lane where it nests, otherwise on a fresh
// lane. The result renders as the familiar flame graph with one extra
// lane per degree of parallelism.
type ChromeSink struct {
	w      io.WriteCloser
	events []Event
}

// NewChromeSink buffers a Chrome trace to be written to w on Close.
func NewChromeSink(w io.WriteCloser) *ChromeSink { return &ChromeSink{w: w} }

// Emit buffers the event.
func (s *ChromeSink) Emit(ev Event) { s.events = append(s.events, ev) }

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// Close lays out the buffered spans and writes the trace JSON.
func (s *ChromeSink) Close() error {
	defer s.w.Close()
	type spanRec struct {
		id, parent uint64
		name       string
		start, end int64
		attrs      []Attr
		lane       int
		instants   []Event
	}
	spans := map[uint64]*spanRec{}
	var order []uint64
	var maxTS int64
	counters := map[string]int64{} // running totals for count events
	var out []chromeEvent
	for _, ev := range s.events {
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		switch ev.Type {
		case EvBegin:
			spans[ev.Span] = &spanRec{id: ev.Span, parent: ev.Parent,
				name: ev.Name, start: ev.TS, end: -1, attrs: ev.Attrs}
			order = append(order, ev.Span)
		case EvEnd:
			if r := spans[ev.Span]; r != nil {
				r.end = ev.TS
			}
		case EvInstant:
			if r := spans[ev.Span]; r != nil {
				r.instants = append(r.instants, ev)
			}
		case EvCount, EvGauge:
			v := ev.Value
			if ev.Type == EvCount {
				counters[ev.Name] += ev.Value
				v = counters[ev.Name]
			}
			out = append(out, chromeEvent{Name: ev.Name, Ph: "C",
				TS: us(ev.TS), PID: 1, TID: 0,
				Args: map[string]any{"value": v}})
		}
	}
	// Unended spans (a crashed run) extend to the last timestamp.
	for _, r := range spans {
		if r.end < 0 {
			r.end = maxTS
		}
	}
	// Lane assignment in start order: each lane holds a stack of open
	// intervals. A span may share a lane only when the innermost
	// interval still open there is its own parent and contains it —
	// time containment alone is not enough, or a sibling that happens
	// to finish early would render as nested under another sibling.
	sorted := append([]uint64(nil), order...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := spans[sorted[i]], spans[sorted[j]]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end // outermost first on ties
	})
	type openIv struct {
		end int64
		id  uint64
	}
	var lanes [][]openIv // per lane: stack of open intervals
	fits := func(l int, r *spanRec) bool {
		stack := lanes[l]
		// Drop intervals already closed at r.start.
		for len(stack) > 0 && stack[len(stack)-1].end <= r.start {
			stack = stack[:len(stack)-1]
		}
		lanes[l] = stack
		if len(stack) == 0 {
			return true
		}
		top := stack[len(stack)-1]
		return top.id == r.parent && top.end >= r.end
	}
	for _, id := range sorted {
		r := spans[id]
		lane := -1
		if p := spans[r.parent]; p != nil && fits(p.lane, r) {
			lane = p.lane
		} else {
			for l := range lanes {
				if fits(l, r) {
					lane = l
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		r.lane = lane
		lanes[lane] = append(lanes[lane], openIv{end: r.end, id: r.id})
	}
	for _, id := range order {
		r := spans[id]
		out = append(out, chromeEvent{Name: r.name, Ph: "X",
			TS: us(r.start), Dur: us(r.end - r.start),
			PID: 1, TID: r.lane + 1, Args: attrMap(r.attrs)})
		for _, in := range r.instants {
			out = append(out, chromeEvent{Name: in.Name, Ph: "i",
				TS: us(in.TS), PID: 1, TID: r.lane + 1, S: "t",
				Args: attrMap(in.Attrs)})
		}
	}
	enc := json.NewEncoder(s.w)
	return enc.Encode(map[string]any{"traceEvents": out, "displayTimeUnit": "ms"})
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// Phase is every span of one name folded together. BusyNS sums the
// span durations; WallNS is the length of the union of their
// intervals, so concurrent spans (parallel miter proofs) count once in
// WallNS and once each in BusyNS. BusyNS/WallNS is the phase's mean
// parallelism; at one worker the two agree.
type Phase struct {
	Name   string `json:"name"`
	Count  int64  `json:"count"` // spans begun, ended or not
	WallNS int64  `json:"wall_ns"`
	BusyNS int64  `json:"busy_ns"`
	MaxNS  int64  `json:"max_ns"`
}

// PhaseFold is the one span-to-phase aggregation: the bench harness,
// the daemon's job report and the dashboard all read Phases. Spans
// still open when Phases is called extend to the last timestamp seen,
// so a running or crashed trace folds without repair. An end whose
// begin never reached the fold (a truncated trace) is ignored. It keeps
// no event stream.
type PhaseFold struct {
	phases map[string]*phaseAcc
	open   map[uint64]openSpan
	lastTS int64
}

type phaseAcc struct {
	Phase
	nOpen int64 // spans of this name open now
	since int64 // when nOpen last rose from 0
}

type openSpan struct {
	name  string
	start int64
}

// NewPhaseFold returns an empty fold.
func NewPhaseFold() *PhaseFold {
	return &PhaseFold{phases: map[string]*phaseAcc{}, open: map[uint64]openSpan{}}
}

// Emit folds one event; only span begins and ends count.
func (f *PhaseFold) Emit(ev Event) {
	if ev.TS > f.lastTS {
		f.lastTS = ev.TS
	}
	switch ev.Type {
	case EvBegin:
		a := f.phases[ev.Name]
		if a == nil {
			a = &phaseAcc{Phase: Phase{Name: ev.Name}}
			f.phases[ev.Name] = a
		}
		a.Count++
		if a.nOpen == 0 {
			a.since = ev.TS
		}
		a.nOpen++
		f.open[ev.Span] = openSpan{name: ev.Name, start: ev.TS}
	case EvEnd:
		sp, ok := f.open[ev.Span]
		if !ok {
			return
		}
		delete(f.open, ev.Span)
		a := f.phases[sp.name]
		a.add(ev.Dur)
		if a.nOpen--; a.nOpen == 0 {
			a.WallNS += ev.TS - a.since
		}
	}
}

func (a *phaseAcc) add(dur int64) {
	a.BusyNS += dur
	if dur > a.MaxNS {
		a.MaxNS = dur
	}
}

// Close is a no-op (the fold stays readable).
func (f *PhaseFold) Close() error { return nil }

// Phases returns the fold sorted by descending WallNS, then name.
func (f *PhaseFold) Phases() []Phase {
	closed := make(map[string]*phaseAcc, len(f.phases))
	for name, a := range f.phases {
		c := *a
		if c.nOpen > 0 {
			c.WallNS += f.lastTS - c.since
		}
		closed[name] = &c
	}
	for _, sp := range f.open {
		closed[sp.name].add(f.lastTS - sp.start)
	}
	out := make([]Phase, 0, len(closed))
	for _, a := range closed {
		out = append(out, a.Phase)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].WallNS != out[k].WallNS {
			return out[i].WallNS > out[k].WallNS
		}
		return out[i].Name < out[k].Name
	})
	return out
}
