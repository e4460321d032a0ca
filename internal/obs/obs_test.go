package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// collectSink records events in order for assertions.
type collectSink struct{ events []Event }

func (s *collectSink) Emit(ev Event) { s.events = append(s.events, ev) }
func (s *collectSink) Close() error  { return nil }

// TestNoTracerZeroAlloc pins the overhead contract from DESIGN.md §10:
// with no tracer on the context, the instrumentation fast path (Start,
// Start1, End, Count, Gauge, Event guards) allocates nothing.
func TestNoTracerZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := Start(ctx, "phase")
		c2, sp2 := Start1(c, "miter", S("output", "o1"))
		if sp2 != nil {
			sp2.Event("budget.slice", I("slice_ns", 1), I("pending", 2))
		}
		sp2.Count("sat.calls", 1)
		sp2.Gauge("bdd.nodes", 42)
		CurrentSpan(c2).Gauge("x", 1)
		sp2.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("no-tracer fast path allocates: %v allocs/op, want 0", allocs)
	}
}

func TestNilSafety(t *testing.T) {
	var sp *Span
	sp.End()
	sp.Count("x", 1)
	sp.Gauge("x", 1)
	sp.Event("x")
	if FromContext(nil) != nil || CurrentSpan(nil) != nil {
		t.Fatal("nil context must yield nil tracer and span")
	}
	ctx, sp2 := Start(nil, "x")
	if ctx != nil || sp2 != nil {
		t.Fatal("Start on nil context must be a no-op")
	}
}

func TestSpanHierarchyAndEvents(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := Start(ctx, "root", S("engine", "bdd"))
	ctx2, child := Start(ctx1, "child")
	child.Count("merges", 3)
	child.Gauge("nodes", 17)
	child.Event("note", I("k", 9))
	if got := CurrentSpan(ctx2); got != child {
		t.Fatalf("CurrentSpan = %v, want child", got)
	}
	child.End()
	child.End() // idempotent
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	want := []string{EvBegin, EvBegin, EvCount, EvGauge, EvInstant, EvEnd, EvEnd}
	if len(sink.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(sink.events), len(want), sink.events)
	}
	for i, ty := range want {
		if sink.events[i].Type != ty {
			t.Fatalf("event %d type = %s, want %s", i, sink.events[i].Type, ty)
		}
	}
	begin := sink.events[1]
	if begin.Parent != sink.events[0].Span {
		t.Fatalf("child parent = %d, want root id %d", begin.Parent, sink.events[0].Span)
	}
	if end := sink.events[5]; end.Span != begin.Span || end.Dur < 0 {
		t.Fatalf("bad end event %+v", end)
	}
	// Timestamps are monotone within one goroutine.
	for i := 1; i < len(sink.events); i++ {
		if sink.events[i].TS < sink.events[i-1].TS {
			t.Fatalf("timestamps regressed at %d: %+v", i, sink.events)
		}
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	ctx := WithTracer(context.Background(), tr)
	ctx, sp := Start(ctx, "parse", S("file", "a.blif"))
	_, inner := Start(ctx, "fraig")
	inner.Count("fraig.merges", 5)
	inner.End()
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateJSONL(&buf)
	if err != nil {
		t.Fatalf("emitted stream fails its own schema: %v", err)
	}
	if rep.Spans != 2 || rep.MaxDepth != 2 {
		t.Fatalf("report = %+v, want 2 spans nested 2 deep", rep)
	}
}

func TestChromeSinkLanesAndValidity(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(nopCloser{&buf})
	tr := New(sink)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "miters")
	// Two overlapping children (parallel workers) must land on
	// different lanes; sequential grandchildren share their parent's.
	_, a := Start(ctx, "miter-a")
	_, b := Start(ctx, "miter-b")
	a.Count("sat.conflicts", 10)
	b.End()
	a.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	tids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Name] = ev.TID
		}
	}
	if len(tids) != 3 {
		t.Fatalf("want 3 complete events, got %v", tids)
	}
	if tids["miter-a"] == tids["miter-b"] {
		t.Fatalf("overlapping siblings share lane %d: %v", tids["miter-a"], tids)
	}
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

func TestProgressSinkRendersAndGuardsRates(t *testing.T) {
	var buf bytes.Buffer
	s := NewProgressSink(&buf)
	// Two gauge samples with the same timestamp: the rate path must not
	// divide by zero (NaN/Inf would render as such).
	s.Emit(Event{Type: EvBegin, TS: 0, Span: 1, Name: "cec"})
	s.Emit(Event{Type: EvGauge, TS: 5, Span: 1, Name: "bdd.nodes", Value: 10})
	s.Emit(Event{Type: EvGauge, TS: 5, Span: 1, Name: "bdd.nodes", Value: 20})
	s.Emit(Event{Type: EvEnd, TS: 10, Span: 1, Name: "cec", Dur: 10})
	out := buf.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("unguarded rate division:\n%s", out)
	}
	if !strings.Contains(out, "> cec") || !strings.Contains(out, "< cec") {
		t.Fatalf("span lines missing:\n%s", out)
	}
	if !strings.Contains(out, "bdd.nodes = 10") {
		t.Fatalf("gauge line missing:\n%s", out)
	}
}

func TestRateGuards(t *testing.T) {
	if r := Rate(100, 0); r != 0 {
		t.Fatalf("Rate with zero elapsed = %v, want 0", r)
	}
	if r := Rate(100, -5); r != 0 {
		t.Fatalf("Rate with negative elapsed = %v, want 0", r)
	}
	if r := Rate(100, int64(time.Second)); r != 100 {
		t.Fatalf("Rate(100, 1s) = %v, want 100", r)
	}
}

func TestThrottle(t *testing.T) {
	th := NewThrottle(time.Hour)
	if !th.Ok() {
		t.Fatal("first call must pass")
	}
	if th.Ok() {
		t.Fatal("second call within interval must be suppressed")
	}
	always := NewThrottle(0)
	if !always.Ok() || !always.Ok() {
		t.Fatal("zero-interval throttle must admit everything")
	}
}

// TestPhaseFold folds two overlapping miter spans under one miters
// span, a gap, a third miter, and a span the trace never ends: busy
// time sums durations, wall time is the union of the open intervals,
// and the unended span stretches to the last timestamp.
func TestPhaseFold(t *testing.T) {
	f := NewPhaseFold()
	for _, ev := range []Event{
		{Type: EvBegin, TS: 0, Span: 1, Name: "miters"},
		{Type: EvBegin, TS: 10, Span: 2, Parent: 1, Name: "miter"},
		{Type: EvBegin, TS: 20, Span: 3, Parent: 1, Name: "miter"},
		{Type: EvEnd, TS: 50, Span: 2, Name: "miter", Dur: 40},
		{Type: EvCount, TS: 55, Span: 3, Name: "sat.conflicts", Value: 9},
		{Type: EvEnd, TS: 60, Span: 3, Name: "miter", Dur: 40},
		{Type: EvBegin, TS: 80, Span: 4, Parent: 1, Name: "miter"},
		{Type: EvEnd, TS: 100, Span: 4, Name: "miter", Dur: 20},
		{Type: EvBegin, TS: 105, Span: 5, Name: "sim"},
		{Type: EvEnd, TS: 110, Span: 1, Name: "miters", Dur: 110},
		{Type: EvEnd, TS: 115, Span: 99, Name: "orphan", Dur: 7}, // begin never seen
		{Type: EvGauge, TS: 120, Span: 5, Name: "bdd.nodes", Value: 3},
	} {
		f.Emit(ev)
	}
	want := []Phase{
		{Name: "miters", Count: 1, WallNS: 110, BusyNS: 110, MaxNS: 110},
		{Name: "miter", Count: 3, WallNS: 70, BusyNS: 100, MaxNS: 40},
		{Name: "sim", Count: 1, WallNS: 15, BusyNS: 15, MaxNS: 15},
	}
	got := f.Phases()
	if len(got) != len(want) {
		t.Fatalf("phases = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Phases does not close the open span: the fold keeps going.
	f.Emit(Event{Type: EvEnd, TS: 130, Span: 5, Name: "sim", Dur: 25})
	if ph := f.Phases()[2]; ph != (Phase{Name: "sim", Count: 1, WallNS: 25, BusyNS: 25, MaxNS: 25}) {
		t.Errorf("sim after end = %+v", ph)
	}
	if NewPhaseFold().Phases() == nil {
		t.Error("empty fold must return an empty, non-nil slice")
	}
}
