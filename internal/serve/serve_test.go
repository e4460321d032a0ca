package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seqver/internal/obs"
)

// A small equivalent sequential pair: one latch in the feedback-free
// style, revised with permuted declarations and a renamed internal
// signal.
const goldenSeq = `.model golden
.inputs a b
.outputs o
.latch n q 0
.names a b n
11 1
.names q b o
11 1
.end
`

const revisedSeq = `.model revised
.outputs o
.inputs b a
.names q b o
11 1
.latch m q 0
.names a b m
11 1
.end
`

// revisedBad differs: the output AND became an OR.
const revisedBad = `.model revised_bad
.inputs a b
.outputs o
.latch n q 0
.names a b n
11 1
.names q b o
1- 1
-1 1
.end
`

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.DefaultBudget == 0 {
		opt.DefaultBudget = 10 * time.Second
	}
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(5 * time.Second)
	})
	return s, ts
}

func submitWait(t *testing.T, c *Client, req *JobRequest) *JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// A free worker may pick the job up before the handler renders it,
	// so the first view can already be past queued; it must not have
	// failed.
	switch v.Status {
	case StatusQueued, StatusRunning, StatusRetrying, StatusDone:
	default:
		t.Fatalf("initial view: %+v", v)
	}
	if v.ID == "" {
		t.Fatalf("initial view has no id: %+v", v)
	}
	v, err = c.Wait(ctx, v.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return v
}

func TestSubmitVerdictAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}

	inline := func(g, r string) *JobRequest {
		return &JobRequest{Golden: SideSpec{BLIF: g}, Revised: SideSpec{BLIF: r}}
	}
	v := submitWait(t, c, inline(goldenSeq, revisedSeq))
	if v.Status != StatusDone {
		t.Fatalf("job 1: status %s, error %q", v.Status, v.Error)
	}
	r := v.Result
	if r.Verdict != "equivalent" || r.ExitCode != 0 || r.Cached {
		t.Fatalf("job 1 result: %+v", r)
	}
	if r.CacheKey == "" || r.Stats == nil {
		t.Fatalf("job 1 missing cache key or stats: %+v", r)
	}

	// Same problem, permuted submission: answered from the cache without
	// solving.
	v2 := submitWait(t, c, inline(revisedSeq, goldenSeq))
	r2 := v2.Result
	if v2.Status != StatusDone || !r2.Cached {
		t.Fatalf("job 2 not a cache hit: %+v / %+v", v2, r2)
	}
	if r2.Verdict != "equivalent" || r2.CacheKey != r.CacheKey {
		t.Fatalf("job 2 result: %+v", r2)
	}
	if r2.Stats != nil {
		t.Error("cache hit carries engine stats — no engine ran")
	}

	// The hit's trace is schema-valid and contains no solver ("cec")
	// span — the acceptance criterion that repeat work is O(hash+lookup).
	ctx := context.Background()
	trace, err := c.Trace(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(trace)); err != nil {
		t.Fatalf("job 2 trace invalid: %v", err)
	}
	if bytes.Contains(trace, []byte(`"name":"cec"`)) {
		t.Error("cache-hit trace contains a solver span")
	}
	if !bytes.Contains(trace, []byte(`"name":"cache.lookup"`)) {
		t.Error("cache-hit trace missing the cache.lookup span")
	}
	trace1, err := c.Trace(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(trace1, []byte(`"name":"cec"`)) {
		t.Error("solved job's trace missing the cec span")
	}
	// A cache miss hashes and decides one joint AIG: it is built once,
	// under the cache lookup, and the cec span does not rebuild it.
	events, err := obs.DecodeJSONL(bytes.NewReader(trace1))
	if err != nil {
		t.Fatal(err)
	}
	spanName := map[uint64]string{}
	builds := 0
	for _, ev := range events {
		if ev.Type != "begin" {
			continue
		}
		spanName[ev.Span] = ev.Name
		if ev.Name == "aig.build" {
			builds++
			if p := spanName[ev.Parent]; p != "cache.lookup" {
				t.Errorf("aig.build opened under %q, want cache.lookup", p)
			}
		}
	}
	if builds != 1 {
		t.Errorf("cache-miss job built the joint AIG %d times, want 1", builds)
	}

	// /metrics shows the hit.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if !strings.Contains(body.String(), "seqver_cache_hits_total 1") {
		t.Errorf("/metrics missing seqver_cache_hits_total 1:\n%s", firstMatching(body.String(), "seqver_cache"))
	}
}

func firstMatching(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestInequivalentVerdict(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	v := submitWait(t, c, &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedBad},
	})
	if v.Status != StatusDone {
		t.Fatalf("status %s, error %q", v.Status, v.Error)
	}
	r := v.Result
	if r.Verdict != "inequivalent" || r.ExitCode != 1 {
		t.Fatalf("result: %+v", r)
	}
	if r.FailingOutput == "" || len(r.Counterexample) == 0 {
		t.Fatalf("inequivalent without a witness: %+v", r)
	}
}

func TestCorpusSubmission(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}

	resp, err := http.Get(ts.URL + "/api/v1/corpus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var corpus struct {
		Names         []string `json:"names"`
		VariantSuffix string   `json:"variant_suffix"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&corpus); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range corpus.Names {
		if n == "s3384" {
			found = true
		}
	}
	if !found || corpus.VariantSuffix != ":synth" {
		t.Fatalf("corpus listing: %+v", corpus)
	}

	v := submitWait(t, c, &JobRequest{
		Golden:  SideSpec{Corpus: "s400"},
		Revised: SideSpec{Corpus: "s400"},
	})
	if v.Status != StatusDone || v.Result.Verdict != "equivalent" {
		t.Fatalf("s400 self-check: %+v (error %q)", v.Result, v.Error)
	}
	if v.Request.GoldenCorpus != "s400" || v.Request.InlineBLIF {
		t.Fatalf("request echo: %+v", v.Request)
	}

	bad, err := c.Submit(context.Background(), &JobRequest{
		Golden:  SideSpec{Corpus: "no_such_circuit"},
		Revised: SideSpec{Corpus: "s400"},
	})
	if err != nil {
		t.Fatalf("unknown corpus must fail at run time (side resolution), got submit error %v", err)
	}
	final, err := c.Wait(context.Background(), bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusFailed || !strings.Contains(final.Error, "no_such_circuit") {
		t.Fatalf("unknown corpus: %+v", final)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	post := func(body string) (*http.Response, apiError) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var wrapped struct {
			Error apiError `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&wrapped)
		return resp, wrapped.Error
	}

	resp, apiErr := post(`not json`)
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != "invalid_request" {
		t.Errorf("bad JSON: %d %+v", resp.StatusCode, apiErr)
	}
	resp, apiErr = post(`{"golden":{"blif":"x","corpus":"y"},"revised":{"corpus":"s400"}}`)
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != "invalid_request" {
		t.Errorf("both sides set: %d %+v", resp.StatusCode, apiErr)
	}
	resp, apiErr = post(`{"golden":{"corpus":"s400"},"revised":{"corpus":"s400"},"engine":"quantum"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, "quantum") {
		t.Errorf("bad engine: %d %+v", resp.StatusCode, apiErr)
	}
	resp, apiErr = post(`{"golden":{"corpus":"s400"},"revised":{"corpus":"s400"},"surprise":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d %+v", resp.StatusCode, apiErr)
	}
	// The removed engines are refused, not aliased to hybrid ("sat"
	// meant "skip fraig", "portfolio" raced SAT against BDD per miter),
	// and the error lists what is accepted.
	for _, engine := range []string{"sat", "portfolio"} {
		resp, apiErr = post(`{"golden":{"corpus":"s400"},"revised":{"corpus":"s400"},"engine":"` + engine + `"}`)
		if resp.StatusCode != http.StatusBadRequest || apiErr.Code != "invalid_request" {
			t.Errorf("engine %s: %d %+v", engine, resp.StatusCode, apiErr)
		}
		for _, want := range []string{`"` + engine + `"`, "(want hybrid or bdd)"} {
			if !strings.Contains(apiErr.Message, want) {
				t.Errorf("engine %s: message %q does not name %s", engine, apiErr.Message, want)
			}
		}
	}
	// sat_mode is no longer a request field: the strict decoder names it.
	resp, apiErr = post(`{"golden":{"corpus":"s400"},"revised":{"corpus":"s400"},"sat_mode":"fresh"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, "sat_mode") {
		t.Errorf("sat_mode field: %d %+v", resp.StatusCode, apiErr)
	}
}

func TestJobNotFoundAndList(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}

	resp, err := http.Get(ts.URL + "/api/v1/jobs/j-doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: HTTP %d, want 404", resp.StatusCode)
	}

	v := submitWait(t, c, &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedSeq},
	})
	resp, err = http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []*JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID {
		t.Fatalf("job list: %+v", list.Jobs)
	}
}

func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	v := submitWait(t, c, &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedSeq},
	})

	// Subscribing after the fact replays the buffered trace and closes
	// with the terminal "done" event.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var traceEvents int
	var done *JobView
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "trace":
				traceEvents++
				var ev map[string]any
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("trace event not JSON: %v in %q", err, data)
				}
			case "done":
				done = &JobView{}
				if err := json.Unmarshal([]byte(data), done); err != nil {
					t.Fatalf("done event: %v", err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if traceEvents == 0 {
		t.Error("no trace events replayed")
	}
	if done == nil || done.Status != StatusDone || done.Result == nil {
		t.Fatalf("terminal done event: %+v", done)
	}
}

func TestCacheAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	submitWait(t, c, &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedSeq},
	})

	resp, err := http.Get(ts.URL + "/api/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after one decided job: %+v", st)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: HTTP %d", hresp.StatusCode)
	}
}

func TestNoCacheOption(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	c := &Client{Base: ts.URL}
	req := &JobRequest{
		Golden:  SideSpec{BLIF: goldenSeq},
		Revised: SideSpec{BLIF: revisedSeq},
		NoCache: true,
	}
	v := submitWait(t, c, req)
	if v.Status != StatusDone || v.Result.Cached {
		t.Fatalf("first no_cache job: %+v", v.Result)
	}
	v2 := submitWait(t, c, req)
	if v2.Result.Cached {
		t.Error("no_cache job answered from cache")
	}
	resp, err := http.Get(ts.URL + "/api/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cs CacheStats
	json.NewDecoder(resp.Body).Decode(&cs)
	if cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("no_cache jobs touched the cache: %+v", cs)
	}
}

func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	s.testRunGate = func(context.Context, *Job) { <-gate }
	defer close(gate)
	// MaxAttempts 1: this test asserts the server's queue bound; the
	// client's own 503 retry would otherwise stall on Retry-After.
	c := &Client{Base: ts.URL, MaxAttempts: 1}

	ctx := context.Background()
	req := &JobRequest{Golden: SideSpec{BLIF: goldenSeq}, Revised: SideSpec{BLIF: revisedSeq}, NoCache: true}
	first, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds job 1 at the gate, so job 2 must sit
	// in the queue buffer.
	waitStatus(t, s, first.ID, StatusRunning)
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	_, err = c.Submit(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "queue_full") {
		t.Fatalf("third submit: %v, want queue_full 503", err)
	}
}

func waitStatus(t *testing.T, s *Server, id, status string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j := s.Job(id); j != nil && j.Status() == status {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, status)
}
