package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestBaggageStampsSpanBegins(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	ctx := WithTracer(context.Background(), tr)
	ctx = WithBaggage(ctx, S("job_id", "j-42"))

	ctx, root := Start(ctx, "job", I("attempt", 1))
	_, child := Start(ctx, "cec")
	child.End()
	root.End()
	tr.Close()

	begins := 0
	for _, ev := range sink.events {
		if ev.Type != EvBegin {
			continue
		}
		begins++
		if got := AttrStr(ev.Attrs, "job_id"); got != "j-42" {
			t.Fatalf("span %q: job_id = %q, want j-42 (attrs %v)", ev.Name, got, ev.Attrs)
		}
	}
	if begins != 2 {
		t.Fatalf("begins = %d, want 2", begins)
	}
	// The explicit attr on the root must have survived the merge.
	if got := AttrInt(sink.events[0].Attrs, "attempt"); got != 1 {
		t.Fatalf("root attempt attr = %d, want 1", got)
	}
}

func TestBaggageAccumulates(t *testing.T) {
	ctx := WithBaggage(context.Background(), S("request_id", "r-1"))
	ctx = WithBaggage(ctx, S("job_id", "j-1"))
	bg := BaggageFrom(ctx)
	if len(bg) != 2 || AttrStr(bg, "request_id") != "r-1" || AttrStr(bg, "job_id") != "j-1" {
		t.Fatalf("baggage = %v", bg)
	}
	if WithBaggage(ctx) != ctx {
		t.Fatal("empty WithBaggage must return the context unchanged")
	}
}

func TestLogHandlerStampsBaggage(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(slog.NewJSONHandler(&buf, nil))
	ctx := WithBaggage(context.Background(), S("job_id", "j-7"), I("attempt", 3))

	logger.InfoContext(ctx, "job started", "engine", "bdd")
	logger.With("component", "worker").InfoContext(ctx, "still stamped")
	logger.InfoContext(context.Background(), "no baggage")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3: %q", len(lines), buf.String())
	}
	parse := func(line string) map[string]any {
		rec := map[string]any{}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	rec := parse(lines[0])
	if rec["job_id"] != "j-7" || rec["attempt"] != float64(3) || rec["engine"] != "bdd" {
		t.Fatalf("line 0 = %v", rec)
	}
	rec = parse(lines[1])
	if rec["job_id"] != "j-7" || rec["component"] != "worker" {
		t.Fatalf("With() lost the baggage wrapper: %v", rec)
	}
	rec = parse(lines[2])
	if _, ok := rec["job_id"]; ok {
		t.Fatalf("baggage leaked into an unrelated context: %v", rec)
	}
}

func TestDecodeJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := New(sink)
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "job", S("job_id", "j-9"))
	_, m := Start(ctx, "miter", S("output", "o3"))
	m.Event("resolved", S("status", "equal"), S("engine", "sat"))
	m.Gauge("sat.conflicts", 120)
	m.End()
	root.Count("miters.resolved", 1)
	root.End()
	tr.Close()

	events, err := DecodeJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 7 {
		t.Fatalf("events = %d, want 7", len(events))
	}
	if events[0].Type != EvBegin || AttrStr(events[0].Attrs, "job_id") != "j-9" {
		t.Fatalf("event 0 = %+v", events[0])
	}
	var sawGauge, sawResolved bool
	for _, ev := range events {
		switch {
		case ev.Type == EvGauge && ev.Name == "sat.conflicts":
			sawGauge = ev.Value == 120
		case ev.Type == EvInstant && ev.Name == "resolved":
			sawResolved = AttrStr(ev.Attrs, "status") == "equal" &&
				AttrStr(ev.Attrs, "engine") == "sat"
		}
	}
	if !sawGauge || !sawResolved {
		t.Fatalf("gauge/resolved not decoded: gauge=%v resolved=%v", sawGauge, sawResolved)
	}

	// A tail-truncated trace still decodes its complete lines.
	trunc := buf.Bytes()[:bytes.LastIndexByte(buf.Bytes()[:buf.Len()-1], '\n')+1]
	events, err = DecodeJSONL(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("truncated decode = %d events, want 6", len(events))
	}
}
