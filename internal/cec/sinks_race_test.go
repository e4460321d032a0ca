package cec

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"testing"

	"seqver/internal/metrics"
	"seqver/internal/obs"
	"seqver/internal/synth"
)

// nopCloser adapts a bytes.Buffer for ChromeSink's io.WriteCloser.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// TestSinksUnderParallelWorkers drives every sink at once — JSONL,
// Chrome, the flight-recorder ring, and the metrics fold — from a check
// with parallel miter workers. Run under -race this is the proof that
// the tracer's serialization actually protects sink internals; the
// assertions then check each output is well-formed:
//
//   - the JSONL stream validates against the trace schema
//   - the ring dump (a repaired suffix) validates too
//   - every ChromeSink lane renders as a sane flame graph: the X-event
//     intervals on one lane are properly nested or disjoint, never
//     partially overlapping, and nesting only pairs parents with their
//     own descendants (lane sharing is parent-consistent)
func TestSinksUnderParallelWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var jsonl bytes.Buffer
	var chrome bytes.Buffer
	ring := obs.NewRingSink(128) // force eviction under a real workload
	reg := metrics.NewRegistry()
	tr := obs.New(
		obs.NewJSONLSink(&jsonl),
		obs.NewChromeSink(nopCloser{&chrome}),
		ring,
		metrics.NewSink(reg),
	)
	ctx := obs.WithTracer(context.Background(), tr)

	for trial := 0; trial < 3; trial++ {
		c := randomComb(rng)
		o, err := synth.OptimizeComb(c, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckCtx(ctx, c, o, Options{Workers: 4, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Equivalent {
			t.Fatalf("trial %d: verdict %v, want Equivalent", trial, res.Verdict)
		}
	}
	// Fraig collapses the small random pairs structurally, so the
	// worker pool only runs on the multiplier pair's middle product
	// bits: three miters proved by four workers at once.
	res, err := CheckCtx(ctx, multiplier(6, false), multiplier(6, true), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("multiplier pair: verdict %v, want Equivalent", res.Verdict)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := obs.ValidateJSONL(bytes.NewReader(jsonl.Bytes())); err != nil {
		t.Errorf("JSONL stream from parallel workers invalid: %v", err)
	}

	var dump bytes.Buffer
	if err := ring.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(dump.Bytes())); err != nil {
		t.Errorf("ring dump from parallel workers invalid: %v", err)
	}

	if got := reg.Counter("seqver_sat_calls_total", "").Value(); got == 0 {
		t.Error("metrics fold saw no SAT calls from the parallel run")
	}

	checkChromeLanes(t, chrome.Bytes())
}

// TestTraceFeedsEngineCounters folds checks of the multiplier pair,
// whose middle product bits reach SAT probes, through metrics.Sink
// alone: the trace is the only feed of the engine counters, so every
// seqver_*_total series must equal its exact Stats field and
// miters_resolved must count the miter spans once each.
func TestTraceFeedsEngineCounters(t *testing.T) {
	c1, c2 := multiplier(6, false), multiplier(6, true)
	for _, workers := range []int{1, 2} {
		reg := metrics.NewRegistry()
		fold := obs.NewPhaseFold()
		tr := obs.New(metrics.NewSink(reg), fold)
		res, err := CheckCtx(obs.WithTracer(context.Background(), tr), c1, c2, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.SATCalls == 0 {
			t.Fatalf("workers=%d: no SAT calls; the pair must reach stage 3", workers)
		}
		var miterSpans int64
		for _, p := range fold.Phases() {
			if p.Name == "miter" {
				miterSpans = p.Count
			}
		}
		for name, want := range map[string]int64{
			"seqver_sim_patterns_total":        st.SimPatterns,
			"seqver_fraig_merges_total":        int64(st.FraigMerges),
			"seqver_fraig_cut_merges_total":    int64(st.FraigCutMerges),
			"seqver_fraig_prove_calls_total":   int64(st.FraigProveCalls),
			"seqver_fraig_refuted_total":       int64(st.FraigRefuted),
			"seqver_fraig_sat_conflicts_total": st.FraigConflicts,
			"seqver_fraig_sat_decisions_total": st.FraigDecisions,
			"seqver_fraig_key_words_total":     int64(st.FraigKeyWords),
			"seqver_sat_calls_total":           int64(st.SATCalls),
			"seqver_sat_conflicts_total":       st.Conflicts,
			"seqver_sat_decisions_total":       st.Decisions,
			"seqver_sat_clauses_reused_total":  st.ClausesReused,
			"seqver_sat_vars_encoded_total":    st.VarsEncoded,
			"seqver_undecided_outputs_total":   int64(len(res.UndecidedOutputs)),
			"seqver_miters_resolved_total":     miterSpans,
		} {
			if got := reg.Counter(name, "").Value(); got != want {
				t.Errorf("workers=%d: %s = %d, want %d", workers, name, got, want)
			}
		}
	}
}

// checkChromeLanes decodes a Chrome trace and asserts per-lane sanity:
// on each tid, complete (ph=X) events must be properly nested or
// disjoint — partial overlap means two concurrent spans were assigned
// the same lane, which renders as a lie.
func checkChromeLanes(t *testing.T, raw []byte) {
	t.Helper()
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	type iv struct {
		name       string
		start, end float64
	}
	byLane := map[int][]iv{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byLane[ev.TID] = append(byLane[ev.TID], iv{ev.Name, ev.TS, ev.TS + ev.Dur})
	}
	if len(byLane) == 0 {
		t.Fatal("chrome trace has no X events")
	}
	for lane, ivs := range byLane {
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].end > ivs[j].end
		})
		var stack []iv
		for _, cur := range ivs {
			for len(stack) > 0 && stack[len(stack)-1].end <= cur.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && cur.end > stack[len(stack)-1].end {
				t.Errorf("lane %d: %q [%v,%v] partially overlaps %q [%v,%v]",
					lane, cur.name, cur.start, cur.end,
					stack[len(stack)-1].name, stack[len(stack)-1].start, stack[len(stack)-1].end)
			}
			stack = append(stack, cur)
		}
	}
}

// TestPhaseFoldNestsWallTimes folds a multiplier pair's check, whose
// miters fraig cannot merge, at one and two workers. Wall times must
// nest the way the spans do (miter inside miters inside cec) however
// many miters run at once; busy time may exceed wall only when they
// overlap, and at one worker the two agree. A one-conflict budget keeps
// the check short: every unresolved output still opens a miter span.
func TestPhaseFoldNestsWallTimes(t *testing.T) {
	c1, c2 := multiplier(6, false), multiplier(6, true)
	for _, workers := range []int{1, 2} {
		fold := obs.NewPhaseFold()
		ctx := obs.WithTracer(context.Background(), obs.New(fold))
		res, err := CheckCtx(ctx, c1, c2, Options{Workers: workers, MaxConflicts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == Inequivalent {
			t.Fatalf("workers=%d: verdict %v on an equivalent pair", workers, res.Verdict)
		}
		ph := map[string]obs.Phase{}
		for _, p := range fold.Phases() {
			ph[p.Name] = p
		}
		miter, miters, check := ph["miter"], ph["miters"], ph["cec"]
		if miter.Count < 2 {
			t.Fatalf("workers=%d: want several miter spans, got %+v", workers, miter)
		}
		if miter.WallNS > miters.WallNS || miters.WallNS > check.WallNS {
			t.Fatalf("workers=%d: wall times do not nest: miter %d, miters %d, cec %d ns",
				workers, miter.WallNS, miters.WallNS, check.WallNS)
		}
		if miter.BusyNS < miter.WallNS {
			t.Fatalf("workers=%d: miter busy %d < wall %d ns", workers, miter.BusyNS, miter.WallNS)
		}
		if workers == 1 && miter.BusyNS != miter.WallNS {
			t.Fatalf("one worker: miter busy %d != wall %d ns", miter.BusyNS, miter.WallNS)
		}
	}
}
