package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// DefaultRingSize is the flight recorder's default capacity: the last
// 4096 events is a few screens of post-mortem context, and the ring's
// steady-state cost (one slot copy per event, zero allocations after
// warm-up) is cheap enough to leave on for every run.
const DefaultRingSize = 4096

// RingSink is the flight recorder: a bounded ring buffer retaining the
// last N events of a run. Unlike JSONLSink it does no I/O while the run
// is live — the buffer is only serialized (WriteJSONL / DumpFile) when
// something went wrong and a post-mortem artifact is wanted, typically
// a run ending Undecided, an error, or a recovered worker panic.
//
// Because the ring evicts oldest-first, a dump is generally a *suffix*
// of the trace: begins may be missing for spans whose end (or events)
// survived, and spans open at dump time have no end yet. WriteJSONL
// repairs both — synthesizing begin lines up front (parented at the
// root, marked with a synth attr) and end lines at the tail — so every
// dump validates against the same schema as a full trace
// (ValidateJSONL / cmd/tracelint) and loads in the same tooling.
type RingSink struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seen uint64 // total events offered, for the dump header
}

// NewRingSink returns a flight recorder keeping the last n events
// (n <= 0 selects DefaultRingSize).
func NewRingSink(n int) *RingSink {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &RingSink{buf: make([]Event, n)}
}

// Emit stores the event, evicting the oldest when full. The tracer
// serializes Emit calls, but dumps may race a live run (a debug-endpoint
// handler, a signal path), so the ring keeps its own mutex; one
// uncontended lock per event is noise next to the tracer's own.
func (s *RingSink) Emit(ev Event) {
	s.mu.Lock()
	s.buf[s.next] = ev
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.seen++
	s.mu.Unlock()
}

// Close is a no-op: the ring stays readable after the tracer closes, so
// the CLI can decide to dump it after the verdict is known.
func (s *RingSink) Close() error { return nil }

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]Event(nil), s.buf[:s.next]...)
	}
	out := make([]Event, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Dropped reports how many events were evicted from the ring.
func (s *RingSink) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return 0
	}
	return s.seen - uint64(len(s.buf))
}

// ringSpan accumulates what the repair pass knows about one span id.
type ringSpan struct {
	id      uint64
	begun   bool
	ended   bool
	name    string
	beginTS int64
	dur     int64 // from the end event, when present
	endTS   int64
}

// WriteJSONL serializes the ring as a schema-valid JSONL trace (see the
// type comment for the repair it applies). The output always satisfies
// ValidateJSONL, whatever suffix of the run the ring happened to retain.
func (s *RingSink) WriteJSONL(w io.Writer) error {
	evs := s.Events()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)

	// Pass 1: per-span facts plus the dump's time bounds.
	spans := map[uint64]*ringSpan{}
	var order []uint64 // span ids in first-reference order, for determinism
	touch := func(id uint64) *ringSpan {
		sp := spans[id]
		if sp == nil {
			sp = &ringSpan{id: id}
			spans[id] = sp
			order = append(order, id)
		}
		return sp
	}
	var firstTS, lastTS int64
	for i, ev := range evs {
		if i == 0 || ev.TS < firstTS {
			firstTS = ev.TS
		}
		if ev.TS > lastTS {
			lastTS = ev.TS
		}
		switch ev.Type {
		case EvBegin:
			sp := touch(ev.Span)
			sp.begun = true
			sp.name = ev.Name
			sp.beginTS = ev.TS
			if ev.Parent != 0 {
				touch(ev.Parent)
			}
		case EvEnd:
			sp := touch(ev.Span)
			sp.ended = true
			sp.endTS = ev.TS
			sp.dur = ev.Dur
			if sp.name == "" {
				sp.name = ev.Name
			}
		default:
			if ev.Span != 0 {
				touch(ev.Span)
			}
		}
	}
	if firstTS < 0 {
		firstTS = 0
	}

	// Synthetic begins for spans referenced without one in the ring.
	// They are parented at the root (their true parent is unknowable)
	// and flagged so tooling can tell repair from recording. Orphan ends
	// carry their dur, so the begin can sit where the span really
	// started; everything else opens at the dump's first timestamp.
	for _, id := range order {
		sp := spans[id]
		if sp.begun {
			continue
		}
		if sp.name == "" {
			sp.name = "span" // referenced only as a parent or by metrics
		}
		ts := firstTS
		if sp.ended && sp.dur > 0 {
			if t := sp.endTS - sp.dur; t >= 0 && t < ts {
				ts = t
			}
		}
		sp.beginTS = ts
		if err := enc.Encode(wire(Event{
			Type: EvBegin, TS: ts, Name: sp.name, Span: id,
			Attrs: []Attr{I("synth", 1)},
		})); err != nil {
			return err
		}
	}

	// The retained events, verbatim.
	for _, ev := range evs {
		if err := enc.Encode(wire(ev)); err != nil {
			return err
		}
	}

	// Synthetic ends for spans still open — the interesting ones in a
	// post-mortem: whatever was in flight when the run died.
	for _, id := range order {
		sp := spans[id]
		if sp.ended {
			continue
		}
		dur := lastTS - sp.beginTS
		if dur < 0 {
			dur = 0
		}
		if err := enc.Encode(wire(Event{
			Type: EvEnd, TS: lastTS, Name: sp.name, Span: id, Dur: dur,
		})); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpFile writes the repaired trace to path (0644, truncating).
func (s *RingSink) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
