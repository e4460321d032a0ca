package metrics

import (
	"seqver/internal/obs"
)

// Sink folds an obs event stream into a Registry, so every phase the
// tracer already instruments gets aggregate metrics for free:
//
//   - span end      -> seqver_phase_seconds{phase=<span name>} histogram
//     (observed in ns, exposed in seconds); its _count series is the
//     number of completed spans
//   - count event   -> seqver_<name>_total counter
//   - gauge event   -> seqver_<name> gauge (last sample wins)
//   - instant event -> seqver_events_total{event=<name>} counter
//
// Names are dotted obs names sanitized into Prometheus fragments
// ("sat.conflicts" -> "sat_conflicts"). Emit is called under the
// tracer's mutex, so the per-name handle cache needs no locking; the
// handles themselves are atomics, so a concurrent HTTP scrape is safe.
//
// Span-name and event-name cardinality is bounded by construction — the
// pipeline starts spans under literal names only (DESIGN.md §10), never
// interpolated ones, so the label sets stay small.
type Sink struct {
	reg *Registry

	// Per-obs-name handle caches: one map lookup per event instead of a
	// registry lock + key assembly.
	phaseHists map[string]*Histogram
	countCtrs  map[string]*Counter
	gauges     map[string]*Gauge
	eventCtrs  map[string]*Counter
}

// NewSink returns an obs.Sink folding events into reg.
func NewSink(reg *Registry) *Sink {
	return &Sink{
		reg:        reg,
		phaseHists: map[string]*Histogram{},
		countCtrs:  map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		eventCtrs:  map[string]*Counter{},
	}
}

// Emit folds one event.
func (s *Sink) Emit(ev obs.Event) {
	switch ev.Type {
	case obs.EvEnd:
		h := s.phaseHists[ev.Name]
		if h == nil {
			h = s.reg.HistogramL("seqver_phase_seconds",
				"Wall-clock duration of pipeline phases (obs span ends), by span name.",
				"phase", ev.Name)
			s.phaseHists[ev.Name] = h
		}
		h.Observe(ev.Dur)
	case obs.EvCount:
		c := s.countCtrs[ev.Name]
		if c == nil {
			c = s.reg.Counter("seqver_"+SanitizeName(ev.Name)+"_total",
				"Accumulated obs count events named "+ev.Name+".")
			s.countCtrs[ev.Name] = c
		}
		c.Add(ev.Value)
	case obs.EvGauge:
		g := s.gauges[ev.Name]
		if g == nil {
			g = s.reg.Gauge("seqver_"+SanitizeName(ev.Name),
				"Last sampled obs gauge named "+ev.Name+".")
			s.gauges[ev.Name] = g
		}
		g.Set(ev.Value)
	case obs.EvInstant:
		c := s.eventCtrs[ev.Name]
		if c == nil {
			c = s.reg.CounterL("seqver_events_total",
				"Instant obs events, by event name.", "event", ev.Name)
			s.eventCtrs[ev.Name] = c
		}
		c.Inc()
	}
}

// Close is a no-op: the registry outlives the run by design.
func (s *Sink) Close() error { return nil }
