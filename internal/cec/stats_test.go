package cec

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// fullStats builds a Stats with every field populated, including the
// optional Panics section, so the round-trip test
// covers the whole wire surface.
func fullStats() *Stats {
	return &Stats{
		Engine:           "hybrid",
		Workers:          4,
		Outputs:          9,
		SimRounds:        8,
		SimWordsPerRound: 4,
		SimPatterns:      2048,
		SimCexHits:       1,
		FraigNodesBefore: 120,
		FraigNodesAfter:  30,
		FraigMerges:      45,
		FraigCutMerges:   40,
		FraigProveCalls:  12,
		FraigRefuted:     7,
		FraigConflicts:   33,
		FraigDecisions:   90,
		StructuralEqual:  6,
		SATCalls:         5,
		Conflicts:        777,
		Decisions:        1234,
		ClausesReused:    321,
		VarsEncoded:      654,
		DBReductions:     2,
		ClausesDeleted:   88,
		BudgetNS:         2_000_000_000,
		Panics: []PanicRecord{
			{Output: "o3", Value: "index out of range", Stack: "goroutine 7 [running]:\n..."},
		},
		PerOutput: []OutputStats{
			{Name: "o0", Status: "structural", SATCalls: 0, Worker: -1},
			{Name: "o1", Status: "equal", SATCalls: 2, Conflicts: 500, Decisions: 900, LearnedReused: 42, TimeNS: 120_000, Worker: 0},
			{Name: "o2", Status: "cex", SATCalls: 1, Conflicts: 277, Decisions: 334, TimeNS: 80_000, Worker: 1},
		},
		WorkerBusyNS: []int64{150_000, 90_000, 0, 0},
		Utilization:  0.3,
		ElapsedNS:    200_000,
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	in := fullStats()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Stats
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Errorf("round trip mutated the record:\n in: %+v\nout: %+v", in, &out)
	}
}

// The optional sections must disappear entirely from the JSON when
// unset — consumers key presence off the field, not a zero value.
func TestStatsJSONOmitsEmptyOptionalFields(t *testing.T) {
	data, err := json.Marshal(&Stats{Engine: "hybrid"})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{"panics", "per_output", "worker_busy_ns", "budget_ns"} {
		if strings.Contains(string(data), `"`+key+`"`) {
			t.Errorf("zero-valued optional field %q serialized: %s", key, data)
		}
	}
}

func TestStatsStringGolden(t *testing.T) {
	got := fullStats().String()
	want := `engine:      hybrid (4 workers)
outputs:     9 (6 structural)
simulation:  8 rounds x 4 words (2048 patterns), 1 cex hits
fraig:       120 -> 30 AND nodes, 45 merges (40 on a cut; 12 proofs, 7 refuted; 33 conflicts, 90 decisions)
sat:         5 calls, 777 conflicts, 1234 decisions
sat reuse:   321 clauses reused, 654 vars encoded, 2 reductions
budget:      2s wall clock
panics:      1 recovered proofs (degraded to undecided)
utilization: 30% over 200µs
hardest miters:
  o1                   equal         500 conflicts    120µs
  o2                   cex           277 conflicts     80µs
  o0                   structural      0 conflicts       0s
`
	if got != want {
		t.Errorf("String() drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A Stats with no per-output section and zero elapsed time must still
// render without dividing by zero anywhere (NaN% would surface here).
func TestStatsStringZeroElapsed(t *testing.T) {
	got := (&Stats{Engine: "hybrid", Workers: 1}).String()
	if strings.Contains(got, "NaN") || strings.Contains(got, "Inf") {
		t.Errorf("zero-elapsed Stats rendered a non-finite number:\n%s", got)
	}
}
