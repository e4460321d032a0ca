package core

import (
	"bytes"
	"context"
	"testing"

	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/retime"
)

// collect drains the trace a full VerifyCtx run emits through a JSONL
// sink and returns the validated report plus the raw bytes.
func runTraced(t *testing.T, unateAware bool) (*obs.LintReport, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	ctx := obs.WithTracer(context.Background(), tr)

	c := mixedCircuit()
	rep, err := VerifyCtx(ctx, c, c, PrepareOptions{UnateAware: unateAware}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict.String() != "equivalent" {
		t.Fatalf("verdict = %v on identical circuits", rep.Result.Verdict)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lint, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails its own linter: %v\n%s", err, buf.Bytes())
	}
	return lint, buf.Bytes()
}

// The full verification pipeline, run with a live tracer, must emit a
// schema-valid JSONL stream containing the documented phase spans in a
// properly nested tree. This is the test CI's smoke job mirrors from
// the shell.
func TestVerifyCtxEmitsValidTrace(t *testing.T) {
	lint, raw := runTraced(t, false)
	if lint.Spans < 5 {
		t.Errorf("expected at least 5 spans (prepare, feedback.break, verify, unroll, cec), got %d", lint.Spans)
	}
	if lint.MaxDepth < 3 {
		t.Errorf("span tree too flat: max depth %d, want >= 3 (prepare > feedback.break nests under the root)", lint.MaxDepth)
	}
	for _, name := range []string{`"prepare"`, `"feedback.break"`, `"verify"`, `"cec"`} {
		if !bytes.Contains(raw, []byte(name)) {
			t.Errorf("trace is missing the %s phase span:\n%s", name, raw)
		}
	}
}

func TestPrepareCtxUnateAwareTracesModeling(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONLSink(&buf))
	ctx := obs.WithTracer(context.Background(), tr)
	if _, err := PrepareCtx(ctx, mixedCircuit(), PrepareOptions{UnateAware: true}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("emitted trace fails its own linter: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"unate.model"`)) {
		t.Errorf("unate-aware run did not trace the re-modeling phase:\n%s", buf.Bytes())
	}
}

// With no tracer on the context, VerifyCtx must behave identically —
// the instrumentation is strictly passive.
func TestVerifyCtxWithoutTracer(t *testing.T) {
	c := mixedCircuit()
	rep, err := VerifyCtx(context.Background(), c, c, PrepareOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict.String() != "equivalent" {
		t.Fatalf("verdict = %v", rep.Result.Verdict)
	}
}

// TestEDBFEventCountsSumToContext: the two EDBF sides share one event
// context, so each edbf.unroll span counts only the events it interned
// and the trace's edbf.events total is the context's NumEvents.
func TestEDBFEventCountsSumToContext(t *testing.T) {
	c := netlist.New("mcrt")
	a := c.AddInput("a")
	b := c.AddInput("b")
	le := c.AddInput("le")
	g1 := c.AddGate("g1", netlist.OpXor, a, b)
	g2 := c.AddGate("g2", netlist.OpNand, g1, a)
	l1 := c.AddLatch("l1", g2)
	l2 := c.AddLatch("l2", l1)
	e1 := c.AddEnabledLatch("e1", a, le)
	e2 := c.AddEnabledLatch("e2", e1, le)
	c.AddOutput("o", c.AddGate("o", netlist.OpXor, l2, e2))
	rt, err := retime.MinPeriodMulti(c)
	if err != nil {
		t.Fatal(err)
	}

	fold, ring := obs.NewPhaseFold(), obs.NewRingSink(1024)
	ctx := obs.WithTracer(context.Background(), obs.New(fold, ring))
	u, err := UnrollAcyclicCtx(ctx, c, rt.Circuit, false)
	if err != nil {
		t.Fatal(err)
	}
	if u.Method != "edbf" {
		t.Fatalf("method %s, want edbf", u.Method)
	}
	var perSpan []int64
	for _, ev := range ring.Events() {
		if ev.Type == obs.EvCount && ev.Name == "edbf.events" {
			perSpan = append(perSpan, ev.Value)
		}
	}

	cx := edbf.NewCtx()
	if _, err := cx.Unroll(c); err != nil {
		t.Fatal(err)
	}
	if _, err := cx.Unroll(rt.Circuit); err != nil {
		t.Fatal(err)
	}
	if len(perSpan) != 2 || perSpan[0] == 0 {
		t.Fatalf("edbf.events per span = %v, want two counts, the first nonzero", perSpan)
	}
	if got := fold.Totals()["edbf.events"]; got != int64(cx.NumEvents()) {
		t.Fatalf("summed edbf.events = %d (per span %v), cx.NumEvents() = %d", got, perSpan, cx.NumEvents())
	}
}
