package obs

import (
	"fmt"
	"io"
	"time"
)

// ProgressSink renders a live, human-readable account of the pipeline
// to a writer (stderr in the CLIs): phase begin/end lines for shallow
// spans, and throttled counter/gauge lines with rates so a stuck run
// shows where it is stuck. Deep spans (per-miter) are
// summarized through their counters rather than printed individually —
// a 10k-output run must not print 10k lines.
type ProgressSink struct {
	w        io.Writer
	maxDepth int
	interval int64 // ns between reprints of one metric

	depth   map[uint64]int // span id -> depth (roots at 0)
	metrics map[string]*metricState
}

type metricState struct {
	lastTS    int64 // ts of the last printed sample
	lastValue int64
	total     int64 // running total for count metrics
	printed   bool
}

// NewProgressSink renders to w, printing spans up to depth 2 and
// reprinting each metric at most every 200ms.
func NewProgressSink(w io.Writer) *ProgressSink {
	return &ProgressSink{
		w:        w,
		maxDepth: 2,
		interval: int64(200 * time.Millisecond),
		depth:    map[uint64]int{},
		metrics:  map[string]*metricState{},
	}
}

// Emit renders the event if it is due.
func (s *ProgressSink) Emit(ev Event) {
	switch ev.Type {
	case EvBegin:
		d := 0
		if ev.Parent != 0 {
			d = s.depth[ev.Parent] + 1
		}
		s.depth[ev.Span] = d
		if d <= s.maxDepth {
			fmt.Fprintf(s.w, "[%8s] %s> %s%s\n", stamp(ev.TS), indent(d), ev.Name, attrSuffix(ev.Attrs))
		}
	case EvEnd:
		d := s.depth[ev.Span]
		delete(s.depth, ev.Span)
		if d <= s.maxDepth {
			fmt.Fprintf(s.w, "[%8s] %s< %s (%v)\n", stamp(ev.TS), indent(d), ev.Name,
				time.Duration(ev.Dur).Round(time.Microsecond))
		}
	case EvCount, EvGauge:
		m := s.metrics[ev.Name]
		if m == nil {
			m = &metricState{}
			s.metrics[ev.Name] = m
		}
		level := ev.Value
		if ev.Type == EvCount {
			m.total += ev.Value
			level = m.total
		}
		if m.printed && ev.TS-m.lastTS < s.interval {
			if ev.Type != EvCount {
				m.lastValue = level
			}
			return
		}
		// Rate since the last printed sample; Rate guards the
		// zero-elapsed case (trivially small circuits can emit two
		// samples in the same clock tick).
		rate := Rate(level-m.lastValue, ev.TS-m.lastTS)
		line := fmt.Sprintf("[%8s]     %s = %d", stamp(ev.TS), ev.Name, level)
		if m.printed && rate > 0 {
			line += fmt.Sprintf(" (%.0f/s)", rate)
		}
		fmt.Fprintln(s.w, line)
		m.lastTS, m.lastValue, m.printed = ev.TS, level, true
	case EvInstant:
		if d, ok := s.depth[ev.Span]; ok && d < s.maxDepth {
			fmt.Fprintf(s.w, "[%8s]     * %s%s\n", stamp(ev.TS), ev.Name, attrSuffix(ev.Attrs))
		}
	}
}

// Close is a no-op; the renderer writes as it goes.
func (s *ProgressSink) Close() error { return nil }

func stamp(ns int64) string {
	return time.Duration(ns).Round(time.Millisecond).String()
}

func indent(d int) string {
	switch d {
	case 0:
		return ""
	case 1:
		return "  "
	default:
		return "    "
	}
}

func attrSuffix(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	out := " ["
	for i, a := range attrs {
		if i > 0 {
			out += " "
		}
		if a.IsStr {
			out += fmt.Sprintf("%s=%s", a.Key, a.Str)
		} else {
			out += fmt.Sprintf("%s=%d", a.Key, a.Int)
		}
	}
	return out + "]"
}
