package cec_test

import (
	"testing"

	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// TestFraigKeysIndependentOfWorkers checks one s3384 pair (the prepared
// circuit against its synthesized, min-period-retimed version, both
// CBF-unrolled) with 1, 2 and 4 workers. Each stage-1 worker folds its
// own rounds into class keys and the keys are merged afterwards, so the
// verdict and every fraig statistic must be the same for every worker
// count. Skipping stage 1 must leave fraig to key its own classes.
func TestFraigKeysIndependentOfWorkers(t *testing.T) {
	var sp bench.Spec
	for _, s := range bench.Table1Specs {
		if s.Name == "s3384" {
			sp = s
		}
	}
	prep, err := core.Prepare(bench.Generate(sp), core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := retime.MinPeriod(syn)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cbf.Unroll(prep.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	j, err := cbf.Unroll(rt.Circuit)
	if err != nil {
		t.Fatal(err)
	}

	type fraigStats struct {
		verdict                                 cec.Verdict
		before, after, merges, cutMerges, calls int
		refuted, keyWords                       int
		conflicts, decisions                    int64
	}
	check := func(opt cec.Options) fraigStats {
		t.Helper()
		res, err := cec.Check(h, j, opt)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		return fraigStats{res.Verdict, st.FraigNodesBefore, st.FraigNodesAfter, st.FraigMerges,
			st.FraigCutMerges, st.FraigProveCalls, st.FraigRefuted, st.FraigKeyWords,
			st.FraigConflicts, st.FraigDecisions}
	}
	base := check(cec.Options{Workers: 1})
	if base.verdict != cec.Equivalent || base.merges == 0 || base.calls == 0 {
		t.Fatalf("premise: want an equivalent pair that fraig merges with SAT, got %+v", base)
	}
	if base.keyWords != 32 {
		t.Fatalf("classes keyed on %d words, want stage 1's 8 rounds x 4 words", base.keyWords)
	}
	for _, w := range []int{2, 4} {
		if got := check(cec.Options{Workers: w}); got != base {
			t.Fatalf("workers %d: %+v, one worker %+v", w, got, base)
		}
	}
	if own := check(cec.Options{Workers: 2, SimRounds: -1}); own.keyWords != 4 || own.verdict != cec.Equivalent {
		t.Fatalf("without stage 1: %+v, want fraig's own 4 key words", own)
	}
}
