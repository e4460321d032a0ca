package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seqver/internal/cec"
	"seqver/internal/metrics"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// syncBuf is a locked bytes.Buffer: slog handlers serialize their own
// writes, but the tests read the buffer while workers are still logging.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// jsonLogLines parses every JSONL slog record in the buffer.
func jsonLogLines(t *testing.T, buf *syncBuf) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func findLog(lines []map[string]any, msg string, want map[string]any) map[string]any {
outer:
	for _, m := range lines {
		if m["msg"] != msg {
			continue
		}
		for k, v := range want {
			if m[k] != v {
				continue outer
			}
		}
		return m
	}
	return nil
}

// cockpitLogger builds the production logging stack: JSON handler
// wrapped in the obs baggage stamper, Debug level so access-log scrape
// lines are visible to the assertions.
func cockpitLogger(buf *syncBuf) *slog.Logger {
	return slog.New(obs.NewLogHandler(slog.NewJSONHandler(buf,
		&slog.HandlerOptions{Level: slog.LevelDebug})))
}

// TestEndToEndCorrelation is the tentpole acceptance: one submitted job
// is traceable across the access log, the worker lifecycle lines, and
// the span attributes, all keyed by the same job_id.
func TestEndToEndCorrelation(t *testing.T) {
	buf := &syncBuf{}
	_, ts := newTestServer(t, Options{Logger: cockpitLogger(buf)})
	c := &Client{Base: ts.URL}

	v := submitWait(t, c, &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedSeq},
	})
	if v.Status != StatusDone {
		t.Fatalf("job: %+v", v)
	}

	lines := jsonLogLines(t, buf)
	access := findLog(lines, "http", map[string]any{
		"route": "POST /api/v1/jobs", "job_id": v.ID,
	})
	if access == nil {
		t.Fatalf("no access-log line with the job id; lines:\n%s", buf.String())
	}
	reqID, _ := access["request_id"].(string)
	if !strings.HasPrefix(reqID, "r-") {
		t.Fatalf("access line missing request_id: %v", access)
	}
	if access["status"] != float64(http.StatusAccepted) || access["method"] != "POST" {
		t.Fatalf("access line fields: %v", access)
	}
	if findLog(lines, "job accepted", map[string]any{"job_id": v.ID, "request_id": reqID}) == nil {
		t.Fatalf("no job-accepted line sharing the request_id")
	}
	if findLog(lines, "attempt started", map[string]any{"job_id": v.ID}) == nil {
		t.Fatalf("no attempt-started line with job_id (context baggage)")
	}
	fin := findLog(lines, "job finished", map[string]any{"job_id": v.ID, "status": StatusDone})
	if fin == nil || fin["verdict"] != "equivalent" {
		t.Fatalf("job-finished line: %v", fin)
	}

	// The same job_id must ride every span begin in the trace (baggage).
	ctx := context.Background()
	trace, err := c.Trace(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.DecodeJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	begins := 0
	for _, ev := range events {
		if ev.Type != "begin" {
			continue
		}
		begins++
		if got := obs.AttrStr(ev.Attrs, "job_id"); got != v.ID {
			t.Fatalf("span %q begin missing job_id baggage: attrs %v", ev.Name, ev.Attrs)
		}
	}
	if begins == 0 {
		t.Fatal("trace has no span begins")
	}
}

func TestReadyzDrainLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		m := map[string]any{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m
	}
	if code, m := get(); code != http.StatusOK || m["state"] != "ready" {
		t.Fatalf("before drain: %d %v", code, m)
	}
	s.Drain(time.Second)
	code, m := get()
	if code != http.StatusServiceUnavailable || m["state"] != "draining" {
		t.Fatalf("during drain: %d %v", code, m)
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{
		SampleInterval: 20 * time.Millisecond, TimeSeriesCapacity: 256,
	})
	c := &Client{Base: ts.URL}
	for i := 0; i < 2; i++ {
		v := submitWait(t, c, &JobRequest{
			Golden:  SideSpec{BLIF: goldenSeq},
			Revised: SideSpec{BLIF: revisedSeq},
		})
		if v.Status != StatusDone {
			t.Fatalf("job %d: %+v", i, v)
		}
	}
	time.Sleep(80 * time.Millisecond) // a few sampler ticks past the finishes

	resp, err := http.Get(ts.URL + "/api/v1/stats/timeseries?window=1m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		IntervalSeconds float64          `json:"interval_seconds"`
		Capacity        int              `json:"capacity"`
		Samples         []metrics.Sample `json:"samples"`
		Draining        bool             `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.IntervalSeconds != 0.02 || body.Capacity != 256 || body.Draining {
		t.Fatalf("envelope: %+v", body)
	}
	if len(body.Samples) == 0 {
		t.Fatal("no samples after several intervals")
	}
	// The two decided jobs must show up in the rate integral.
	var decided float64
	for _, smp := range body.Samples {
		decided += smp.DecidedPerSec * body.IntervalSeconds
		if smp.TS == 0 {
			t.Fatalf("sample missing timestamp: %+v", smp)
		}
	}
	if decided < 0.5 {
		t.Fatalf("decided-rate integral %.2f, want ~2 (samples %+v)", decided, body.Samples)
	}

	if resp, err := http.Get(ts.URL + "/api/v1/stats/timeseries?window=bogus"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bogus window: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// hardMultiplierPair builds two n x n array multipliers that add their
// partial-product rows in opposite orders: equal functions with
// disjoint structure. At n=6 the middle product bits survive the fraig
// stage's proofs, so their miters reach SAT probes and a starved SAT
// budget must answer undecided.
func hardMultiplierPair(n int) (golden, revised string) {
	build := func(reverse bool) string {
		c := netlist.New("mul")
		a := make([]int, n)
		b := make([]int, n)
		for i := 0; i < n; i++ {
			a[i] = c.AddInput(fmt.Sprintf("a%d", i))
			b[i] = c.AddInput(fmt.Sprintf("b%d", i))
		}
		zero := c.AddGate("", netlist.OpConst0)
		sum := make([]int, 2*n)
		for k := range sum {
			sum[k] = zero
		}
		for r := 0; r < n; r++ {
			i := r
			if reverse {
				i = n - 1 - r
			}
			carry := zero
			for j := 0; j < n; j++ {
				pp := c.AddGate("", netlist.OpAnd, a[i], b[j])
				k := i + j
				s1 := c.AddGate("", netlist.OpXor, sum[k], pp)
				c1 := c.AddGate("", netlist.OpAnd, sum[k], pp)
				sum[k] = c.AddGate("", netlist.OpXor, s1, carry)
				carry = c.AddGate("", netlist.OpOr, c1, c.AddGate("", netlist.OpAnd, s1, carry))
			}
			for k := i + n; k < 2*n; k++ {
				s := c.AddGate("", netlist.OpXor, sum[k], carry)
				carry = c.AddGate("", netlist.OpAnd, sum[k], carry)
				sum[k] = s
			}
		}
		for k, p := range sum {
			c.AddOutput(fmt.Sprintf("p%d", k), p)
		}
		var buf bytes.Buffer
		if err := netlist.WriteBLIF(&buf, c); err != nil {
			panic(err)
		}
		return buf.String()
	}
	return build(false), build(true)
}

// TestJobReportPhasesWallVsBusy checks that parallel miter proofs do
// not inflate the waterfall: at two workers every phase's wall time
// fits inside the job, while busy time keeps the summed span durations.
// A one-conflict budget keeps the job short; each output still opens
// its own miter span, which is all the fold needs.
func TestJobReportPhasesWallVsBusy(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	g, r := hardMultiplierPair(6)
	v := submitWait(t, c, &JobRequest{
		Golden: SideSpec{BLIF: g}, Revised: SideSpec{BLIF: r},
		Workers: 2, MaxConflicts: 1,
	})
	if v.Status != StatusDone || v.Result == nil {
		t.Fatalf("job: %+v", v)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep JobReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	var miter *obs.Phase
	for i, ph := range rep.Phases {
		if ph.WallNS > rep.TotalNS {
			t.Errorf("phase %q wall %d ns exceeds job total %d ns", ph.Name, ph.WallNS, rep.TotalNS)
		}
		if ph.Name == "miter" {
			miter = &rep.Phases[i]
		}
	}
	if miter == nil || miter.Count < 2 {
		t.Fatalf("want several miter spans, got %+v", miter)
	}
	if miter.BusyNS < miter.WallNS {
		t.Fatalf("miter busy %d ns < wall %d ns", miter.BusyNS, miter.WallNS)
	}
}

// TestJobReportMiterCountsExact checks that the report's per-miter
// conflicts and decisions, read from each miter's resolved instant in
// the trace, are the engine's exact per-output accounting.
func TestJobReportMiterCountsExact(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	g, r := hardMultiplierPair(6)
	v := submitWait(t, c, &JobRequest{
		Golden: SideSpec{BLIF: g}, Revised: SideSpec{BLIF: r}, Workers: 2,
	})
	if v.Status != StatusDone || v.Result == nil || v.Result.Stats == nil {
		t.Fatalf("job: %+v", v)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep JobReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Miters == nil || len(rep.Miters.Slowest) == 0 {
		t.Fatalf("report has no miters: %+v", rep)
	}
	exact := map[string]cec.OutputStats{}
	for _, o := range v.Result.Stats.PerOutput {
		exact[o.Name] = o
	}
	var conflicts int64
	for _, m := range rep.Miters.Slowest {
		o, ok := exact[m.Output]
		if !ok {
			t.Fatalf("miter %q has no Stats.PerOutput entry", m.Output)
		}
		if m.Conflicts != o.Conflicts || m.Decisions != o.Decisions {
			t.Errorf("miter %q: report %d conflicts, %d decisions; Stats %d, %d",
				m.Output, m.Conflicts, m.Decisions, o.Conflicts, o.Decisions)
		}
		conflicts += m.Conflicts
	}
	if conflicts == 0 {
		t.Fatal("no miter needed a conflict; the pair must reach SAT probes")
	}

	// The daemon's registry sees each miter once: the trace is its only
	// feed of engine counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	expo, _ := io.ReadAll(mresp.Body)
	want := fmt.Sprintf("\nseqver_miters_resolved_total %d\n", rep.Miters.Total)
	if !strings.Contains(string(expo), want) {
		t.Fatalf("/metrics lacks %q for %d miter spans", strings.TrimSpace(want), rep.Miters.Total)
	}
}

func TestJobReportMatchesTrace(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	v := submitWait(t, c, &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedSeq},
	})
	if v.Status != StatusDone {
		t.Fatalf("job: %+v", v)
	}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep JobReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.ID != v.ID || rep.Status != StatusDone || rep.Verdict != "equivalent" {
		t.Fatalf("report header: %+v", rep)
	}
	if rep.TotalNS <= 0 || len(rep.Phases) == 0 {
		t.Fatalf("report has no waterfall: %+v", rep)
	}
	if rep.CacheOutcome != "miss" {
		t.Fatalf("first solve must report a cache miss, got %q", rep.CacheOutcome)
	}

	// Consistency with the raw trace: every begun span name is a phase
	// whose count equals the trace's begin count, and the job phase's
	// wall time is the report total.
	trace, err := c.Trace(context.Background(), v.ID)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.DecodeJSONL(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	begins := map[string]int64{}
	for _, ev := range events {
		if ev.Type == "begin" {
			begins[ev.Name]++
		}
	}
	if len(rep.Phases) != len(begins) {
		t.Fatalf("report has %d phases, trace begins %d span names", len(rep.Phases), len(begins))
	}
	var jobPhase *obs.Phase
	for i := range rep.Phases {
		ph := rep.Phases[i]
		if got := begins[ph.Name]; got != ph.Count {
			t.Fatalf("phase %q count %d, trace has %d begins", ph.Name, ph.Count, got)
		}
		if ph.Name == "job" {
			jobPhase = &rep.Phases[i]
		}
	}
	if jobPhase == nil || jobPhase.WallNS != rep.TotalNS || jobPhase.BusyNS != rep.TotalNS {
		t.Fatalf("job phase %+v vs total %d", jobPhase, rep.TotalNS)
	}

	// Totals are the trace's count events summed by name, and on this
	// CBF pair they carry the paper's cost drivers.
	counts := map[string]int64{}
	for _, ev := range events {
		if ev.Type == "count" {
			counts[ev.Name] += ev.Value
		}
	}
	if !reflect.DeepEqual(rep.Totals, counts) {
		t.Fatalf("report totals %v, trace count sums %v", rep.Totals, counts)
	}
	for _, name := range []string{"feedback.exposed", "cbf.depth", "cbf.gates", "cbf.source_gates"} {
		if _, ok := rep.Totals[name]; !ok {
			t.Errorf("totals lack %q: %v", name, rep.Totals)
		}
	}
	if rep.Totals["cbf.depth"] != 1 || rep.Totals["cbf.gates"] < rep.Totals["cbf.source_gates"] {
		t.Errorf("one latch deep pair: cbf.depth %d, cbf.gates %d, cbf.source_gates %d",
			rep.Totals["cbf.depth"], rep.Totals["cbf.gates"], rep.Totals["cbf.source_gates"])
	}
	// The daemon ran one job, so /metrics holds the same numbers.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	expo, _ := io.ReadAll(mresp.Body)
	for name, n := range rep.Totals {
		want := fmt.Sprintf("\nseqver_%s_total %d\n", metrics.SanitizeName(name), n)
		if !strings.Contains(string(expo), want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}

	if resp, err := http.Get(ts.URL + "/api/v1/jobs/nope/report"); err == nil {
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("missing job: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestDashboardRenders(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3})
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	page := string(body)
	for _, want := range []string{"seqverd cockpit", `data-workers="3"`, "api/v1/stats/timeseries"} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID response header")
	}
}

// TestClientRetryLogging: attempt 1 draws a 503 whose Retry-After is
// honored, then the daemon disappears — the give-up error must name the
// attempt count and the honored hint, and the injected logger must have
// seen both the retry and the abandonment.
func TestClientRetryLogging(t *testing.T) {
	var srv *httptest.Server
	srv = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining", "daemon is draining")
		// Vanish before the retry lands: the backoff is ≥5ms.
		go func() {
			time.Sleep(time.Millisecond)
			srv.Listener.Close()
		}()
	}))
	srv.Config.SetKeepAlivesEnabled(false)
	srv.Start()
	defer srv.Close()

	buf := &syncBuf{}
	c := &Client{
		Base: srv.URL, MaxAttempts: 2,
		RetryBase: 5 * time.Millisecond, RetryMax: 5 * time.Millisecond,
		Logger: slog.New(slog.NewJSONHandler(buf, nil)),
	}
	_, err := c.Job(context.Background(), "j-x")
	if err == nil {
		t.Fatal("expected give-up error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "giving up after 2 attempts") ||
		!strings.Contains(msg, "Retry-After: 5ms") {
		t.Fatalf("give-up error: %v", err)
	}
	lines := jsonLogLines(t, buf)
	retried := findLog(lines, "retrying request", nil)
	if retried == nil || retried["attempt"] != float64(1) {
		t.Fatalf("retry log line: %v\n%s", retried, buf.String())
	}
	abandoned := findLog(lines, "request abandoned", nil)
	if abandoned == nil || abandoned["attempts"] != float64(2) {
		t.Fatalf("abandoned line: %v", abandoned)
	}
}
