package main

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"seqver"
)

// TestSameSeedSameBLIF checks that a run's inputs follow from its seed:
// the pairs are a fixed corpus, byte-identical on every build, and the
// seed draws the order a run visits them in.
func TestSameSeedSameBLIF(t *testing.T) {
	for _, w := range workloads {
		w.pairs = 3
		a, err := buildPairs(&w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := buildPairs(&w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := range a {
			if a[i].golden != b[i].golden || a[i].revised != b[i].revised {
				t.Errorf("%s pair %d: two builds gave different BLIF", w.name, i)
			}
		}
	}
	if !slices.Equal(seededOrder(7, 64), seededOrder(7, 64)) {
		t.Errorf("same seed gave different visit orders")
	}
	if slices.Equal(seededOrder(7, 64), seededOrder(8, 64)) {
		t.Errorf("seeds 7 and 8 gave the same visit order")
	}
}

// verifyBuggy runs the default path on buggy pair i and returns the check's result after replaying its counterexample.
func verifyBuggy(t *testing.T, i int, kind string) *seqver.CECResult {
	t.Helper()
	p, err := buggyPair(i)
	if err != nil {
		t.Fatal(err)
	}
	if p.fault != kind {
		t.Fatalf("pair %d has fault %q, want %q", i, p.fault, kind)
	}
	c1, c2, err := parsePair(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := seqver.VerifyAcyclicCtx(context.Background(), c1, c2, seqver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict != seqver.Inequivalent {
		t.Fatalf("%s: verdict %v, want inequivalent", p.name, rep.Result.Verdict)
	}
	if _, err := seqver.ReplayCounterexample(c1, c2, rep.Result.Counterexample); err != nil {
		t.Fatalf("%s: counterexample does not replay: %v", p.name, err)
	}
	return rep.Result
}

func TestBothFaultKindsReplay(t *testing.T) {
	if hits := verifyBuggy(t, 0, faultDense).Stats.SimCexHits; hits == 0 {
		t.Errorf("dense fault: stage-1 simulation missed it")
	}
	verifyBuggy(t, 1, faultRare)
}

func TestRareFaultMissesSimulation(t *testing.T) {
	res := verifyBuggy(t, 1, faultRare)
	if hits := res.Stats.SimCexHits; hits != 0 {
		t.Errorf("rare fault: cec.sim_cex_hits = %d, want 0", hits)
	}
	if res.Stats.FraigNodesBefore == 0 {
		t.Errorf("rare fault: fraig did not run")
	}
	// The traced run reads sat.* and cec.utilization here because SAT,
	// not simulation or fraig, finds this counterexample.
	if res.Stats.SATCalls == 0 {
		t.Errorf("rare fault: no SAT call found the counterexample")
	}
}

func TestVerifyPairOracle(t *testing.T) {
	w, err := findWorkload("retimed_s3384")
	if err != nil {
		t.Fatal(err)
	}
	p, err := retimedPair(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, undecided, err := verifyPair(context.Background(), w, p); err != nil || undecided {
		t.Fatalf("equivalent pair: undecided %v, err %v", undecided, err)
	}
	p.wantEquivalent = false
	if _, _, err := verifyPair(context.Background(), w, p); err == nil {
		t.Fatalf("a pair whose known answer is inequivalent passed as equivalent")
	}
}

func TestP90Gate(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
	}{
		{n: 10, want: 9, beyond: 1},
		{n: 99, want: 90, beyond: 9},
		{n: 100, want: 90, beyond: 10},
		{n: 250, want: 225, beyond: 25},
	} {
		if v, beyond := p90(seq(tc.n)); v != tc.want || beyond != tc.beyond {
			t.Errorf("n=%d: p90 %v with %d beyond, want %v with %d", tc.n, v, beyond, tc.want, tc.beyond)
		}
	}
	// Ties at the percentile do not count as beyond it: 200 samples
	// whose p90 is 1, with 25 ones and only 5 larger values.
	tied := make([]float64, 200)
	for i := 170; i < 200; i++ {
		tied[i] = 1
	}
	for i := 195; i < 200; i++ {
		tied[i] = 2
	}
	if v, beyond := p90(tied); v != 1 || beyond != 5 {
		t.Errorf("tied samples: p90 %v with %d beyond, want 1 with 5", v, beyond)
	}
}

func TestCountDeterminism(t *testing.T) {
	cycles := []samples{
		{"sat.conflicts": {5, 7}, "edbf.events": {3}},
		{"sat.conflicts": {5, 8}, "edbf.events": {3}},
	}
	got := countDeterminism(cycles)
	if got["sat.conflicts"] != "unusable" || got["edbf.events"] != "exact" {
		t.Errorf("countDeterminism = %v", got)
	}
}

func TestHostScale(t *testing.T) {
	nominal := probeReading{chaseNominal, arithNominal, chaseNominal, arithNominal}
	if f := hostScale(nominal, nominal); math.Abs(f-1) > 1e-12 {
		t.Errorf("nominal host: scale %v, want 1", f)
	}
	// A host on which both loops take twice the nominal time runs at
	// half speed, so the times measured on it are halved.
	slow := probeReading{2 * chaseNominal, 2 * arithNominal, 2 * chaseNominal, 2 * arithNominal}
	if f := hostScale(slow, slow); math.Abs(f-0.5) > 1e-12 {
		t.Errorf("half-speed host: scale %v, want 0.5", f)
	}
	p, err := newHostProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	if r := p.measure(); r.chase1 <= 0 || r.arith1 <= 0 || r.chaseN <= 0 || r.arithN <= 0 {
		t.Errorf("probe measured %+v", r)
	}

	tl := &tally{}
	tl.record(2*time.Second, "hybrid", false)
	tl.record(4*time.Second, "hybrid", false)
	tl.scaleFrom(1, 0.5)
	if tl.latencies[0] != 2 || tl.latencies[1] != 2 || tl.raw[1] != 4 {
		t.Errorf("scaleFrom(1, 0.5): scaled %v, raw %v", tl.latencies, tl.raw)
	}
}
