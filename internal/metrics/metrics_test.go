package metrics

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"seqver/internal/obs"
)

// TestNoRegistryZeroAlloc pins the "metrics off" contract: with no
// registry on the context, every lookup and every handle update is a
// nil check and nothing else. This is the metrics twin of obs's
// TestNoTracerZeroAlloc — hot paths (SAT inner loop, miter workers)
// call these unconditionally.
func TestNoRegistryZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		reg := FromContext(ctx) // nil: no registry installed
		reg.Counter("seqver_sat_calls_total", "h").Inc()
		reg.CounterL("seqver_checks_total", "h", "verdict", "equal").Add(3)
		reg.Gauge("seqver_bdd_nodes", "h").Set(42)
		reg.Histogram("seqver_miter_seconds", "h").Observe(1234)
	})
	if allocs != 0 {
		t.Fatalf("no-registry fast path allocates: %v allocs/op, want 0", allocs)
	}
}

func TestCounterMonotonic(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // dropped: counters are monotonic
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	var nilC *Counter
	nilC.Add(1)
	nilC.Inc()
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 90 cheap observations and 10 expensive ones: p50 sits in the cheap
	// bucket, p99 in the expensive one. Quantile returns bucket upper
	// bounds, so expectations are powers of two.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, upper bound 128
	}
	for i := 0; i < 10; i++ {
		h.Observe(5000) // bucket 13, upper bound 8192
	}
	if got := h.Quantile(0.50); got != 128 {
		t.Errorf("p50 = %v, want 128", got)
	}
	if got := h.Quantile(0.99); got != 8192 {
		t.Errorf("p99 = %v, want 8192", got)
	}
	if got := h.Count(); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
	if got := h.Sum(); got != 90*100+10*5000 {
		t.Errorf("sum = %d, want %d", got, 90*100+10*5000)
	}
	h.Observe(-50) // clamps to 0, must not corrupt sum
	if got := h.Sum(); got != 90*100+10*5000 {
		t.Errorf("sum after negative observe = %d, want unchanged", got)
	}
	p50, p90, p99 := h.Summary()
	if p50 != 128 || p90 != 128 || p99 != 8192 {
		t.Errorf("Summary() = %v,%v,%v, want 128,128,8192", p50, p90, p99)
	}
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 {
		t.Fatal("nil histogram must be inert")
	}
}

func TestRegistryKindConflict(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x", "h") == nil {
		t.Fatal("first registration must succeed")
	}
	// Same name, different kind: degrade to a nil (no-op) handle rather
	// than corrupting the family.
	if g := reg.Gauge("x", "h"); g != nil {
		t.Fatal("kind conflict must yield a nil handle")
	}
	// Same name, different label key: same refusal.
	if c := reg.CounterL("x", "h", "k", "v"); c != nil {
		t.Fatal("label-key conflict must yield a nil handle")
	}
	// The original handle still works and the series is intact.
	reg.Counter("x", "h").Add(2)
	if got := reg.Counter("x", "h").Value(); got != 2 {
		t.Fatalf("surviving series = %d, want 2", got)
	}
}

func TestRegistryLabeledSeries(t *testing.T) {
	reg := NewRegistry()
	reg.CounterL("seqver_checks_total", "h", "verdict", "equal").Add(2)
	reg.CounterL("seqver_checks_total", "h", "verdict", "cex").Add(1)
	if got := reg.CounterL("seqver_checks_total", "h", "verdict", "equal").Value(); got != 2 {
		t.Fatalf("equal series = %d, want 2", got)
	}
	if got := reg.CounterL("seqver_checks_total", "h", "verdict", "cex").Value(); got != 1 {
		t.Fatalf("cex series = %d, want 1", got)
	}
}

func TestWithRegistryRoundTrip(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	if FromContext(ctx) != reg {
		t.Fatal("FromContext must return the installed registry")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare context must be nil")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) must be nil")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"sat.conflicts":     "sat_conflicts",
		"fraig.nodes_after": "fraig_nodes_after",
		"already_clean":     "already_clean",
		"9lives":            "_9lives",
		"a-b c":             "a_b_c",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteProm(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seqver_sat_conflicts_total", "CDCL conflicts.").Add(7)
	reg.GaugeL("seqver_pool", "Worker pool size.", "stage", `mi"ter`).Set(4)
	reg.HistogramL("seqver_phase_seconds", "Phase durations.", "phase", "fraig").Observe(1_500_000_000) // 1.5s in ns

	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP seqver_sat_conflicts_total CDCL conflicts.\n",
		"# TYPE seqver_sat_conflicts_total counter\n",
		"seqver_sat_conflicts_total 7\n",
		"# TYPE seqver_phase_seconds histogram\n",
		// 1.5e9 ns lands in bucket 31 (upper 2^31 ns = ~2.147s); the
		// _seconds suffix rescales the bound and the sum by 1e-9.
		`seqver_phase_seconds_bucket{phase="fraig",le="2.147483648"} 1` + "\n",
		`seqver_phase_seconds_bucket{phase="fraig",le="+Inf"} 1` + "\n",
		`seqver_phase_seconds_sum{phase="fraig"} 1.5` + "\n",
		`seqver_phase_seconds_count{phase="fraig"} 1` + "\n",
		// Label escaping.
		`seqver_pool{stage="mi\"ter"} 4` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}

	// Families must be name-sorted for diffable scrapes.
	i := strings.Index(out, "seqver_phase_seconds")
	j := strings.Index(out, "seqver_pool")
	k := strings.Index(out, "seqver_sat_conflicts_total")
	if !(i < j && j < k) {
		t.Errorf("families not sorted: phase=%d pool=%d sat=%d", i, j, k)
	}

	// A nil registry writes nothing and does not panic.
	var nilReg *Registry
	var nb strings.Builder
	if err := nilReg.WriteProm(&nb); err != nil || nb.Len() != 0 {
		t.Fatalf("nil registry: err=%v len=%d", err, nb.Len())
	}
}

// TestSinkFolding drives a real tracer through a metrics.Sink and checks
// the obs stream lands in the right families.
func TestSinkFolding(t *testing.T) {
	reg := NewRegistry()
	tr := obs.New(NewSink(reg))
	ctx := obs.WithTracer(context.Background(), tr)

	c, sp := obs.Start(ctx, "sim")
	sp.Count("sat.conflicts", 40)
	sp.Count("sat.conflicts", 2)
	sp.Gauge("bdd.nodes", 2048)
	sp.Event("engine.win")
	sp.Event("engine.win")
	sp.End()
	_, sp2 := obs.Start(c, "sim")
	sp2.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if got := reg.HistogramL("seqver_phase_seconds", "", "phase", "sim").Count(); got != 2 {
		t.Errorf("phase histogram count = %d, want 2", got)
	}
	if got := reg.Counter("seqver_sat_conflicts_total", "").Value(); got != 42 {
		t.Errorf("count fold = %d, want 42", got)
	}
	if got := reg.Gauge("seqver_bdd_nodes", "").Value(); got != 2048 {
		t.Errorf("gauge fold = %d, want 2048", got)
	}
	if got := reg.CounterL("seqver_events_total", "", "event", "engine.win").Value(); got != 2 {
		t.Errorf("instant fold = %d, want 2", got)
	}
}

func TestDebugMux(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("seqver_sat_conflicts_total", "h").Add(11)
	srv := httptest.NewServer(DebugMux(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ExpositionContentType {
		t.Errorf("Content-Type = %q, want %q", ct, ExpositionContentType)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "seqver_sat_conflicts_total 11") {
		t.Errorf("/metrics missing counter:\n%s", b.String())
	}

	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v, want ok", health["status"])
	}
	for _, key := range []string{"pid", "uptime_seconds", "go_version", "gomaxprocs"} {
		if _, ok := health[key]; !ok {
			t.Errorf("healthz missing %q", key)
		}
	}

	vresp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]any
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
}

func TestStartDebugServer(t *testing.T) {
	reg := NewRegistry()
	srv, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr == "" || strings.HasSuffix(srv.Addr, ":0") {
		t.Fatalf("Addr = %q, want a resolved port", srv.Addr)
	}
	var nilSrv *DebugServer
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil DebugServer.Close = %v", err)
	}
}
