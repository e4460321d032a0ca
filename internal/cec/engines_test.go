package cec

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"seqver/internal/netlist"
	"seqver/internal/synth"
)

// middleBits builds k structurally independent 6x6 multipliers, each
// over its own inputs, exposing only product bit p6. Two opposite-order
// copies are function-equal, the fraig stage cannot merge the outputs
// within its 1000-conflict proofs, and every output miter is a
// same-difficulty SAT probe over a disjoint cone.
func middleBits(k int, reverse bool) *netlist.Circuit {
	c := netlist.New("mid")
	for i := 0; i < k; i++ {
		p := addMultiplier(c, fmt.Sprintf("m%d_", i), 6, reverse)
		c.AddOutput(fmt.Sprintf("m%d", i), p[6])
	}
	return c
}

// TestEngineVerdictEquivalence is the cross-engine sweep: hybrid and
// bdd must produce identical verdicts on equivalent and
// mutated pairs at every worker count, and every counterexample must
// be genuine. (Runs under -race in CI via the package race job.)
func TestEngineVerdictEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	for trial := 0; trial < 4; trial++ {
		c := randomComb(rng)
		o, err := synth.OptimizeComb(c, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		mut := mutate(rng, c)
		for _, pair := range [][2]*netlist.Circuit{{c, o}, {c, mut}} {
			var base Verdict
			first := true
			for _, engine := range []string{"hybrid", "bdd"} {
				for _, workers := range []int{1, 2} {
					res, err := Check(pair[0], pair[1], Options{
						Engine: engine, Seed: int64(trial), Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if first {
						base, first = res.Verdict, false
						continue
					}
					if res.Verdict != base {
						t.Fatalf("trial %d engine %s workers %d: verdict %v != %v",
							trial, engine, workers, res.Verdict, base)
					}
					if res.Verdict == Inequivalent {
						assertGenuineCex(t, pair[0], pair[1], res)
					}
				}
			}
		}
	}
}

// TestIncrementalConflictDeltas pins the per-output accounting fix: on
// k independent same-difficulty outputs proved by one warm solver, each
// output's conflict count must be its own probe's delta — absolute
// lifetime counters would grow roughly linearly across the queue.
func TestIncrementalConflictDeltas(t *testing.T) {
	const k = 5
	c1 := middleBits(k, false)
	c2 := middleBits(k, true)
	res, err := Check(c1, c2, Options{Workers: 1, SimRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	min, max, sum := int64(1<<62), int64(0), int64(0)
	for _, o := range res.Stats.PerOutput {
		if o.Conflicts < min {
			min = o.Conflicts
		}
		if o.Conflicts > max {
			max = o.Conflicts
		}
		sum += o.Conflicts
	}
	if min == 0 {
		t.Fatalf("an independent multiplier miter needed no conflicts: %+v", res.Stats.PerOutput)
	}
	if sum != res.Stats.Conflicts {
		t.Fatalf("per-output conflicts sum %d != total %d", sum, res.Stats.Conflicts)
	}
	// The cones are disjoint and equally hard; lifetime counters would
	// make the last output report ~k x the first.
	if max > 3*min {
		t.Fatalf("per-output conflicts look cumulative, not per-probe: min=%d max=%d", min, max)
	}
}

// TestIncrementalReuseTelemetry checks the reuse counters move: probing
// several miters on one warm solver must report carried-over learned
// clauses and encode-once variable accounting.
func TestIncrementalReuseTelemetry(t *testing.T) {
	c1 := multiplier(6, false)
	c2 := multiplier(6, true)
	res, err := Check(c1, c2, Options{Workers: 1, SimRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ClausesReused == 0 {
		t.Fatalf("no cross-miter clause reuse recorded: %+v", st)
	}
	if st.VarsEncoded == 0 {
		t.Fatalf("no encoded-variable accounting: %+v", st)
	}
	reused := false
	for _, o := range st.PerOutput {
		if o.LearnedReused > 0 {
			reused = true
		}
	}
	if !reused {
		t.Fatal("no per-output LearnedReused entry moved")
	}
}

// TestIncrementalBudgetExhaustionUndecided: an interrupted incremental
// probe must degrade to the structured Undecided verdict — named
// outputs — never a hang, crash, or wrong answer.
func TestIncrementalBudgetExhaustionUndecided(t *testing.T) {
	c1 := multiplier(6, false)
	c2 := multiplier(6, true)
	// A nanosecond budget expires before any probe starts.
	res, err := Check(c1, c2, Options{Workers: 2, SimRounds: -1, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Undecided {
		t.Fatalf("verdict %v under expired budget", res.Verdict)
	}
	if len(res.UndecidedOutputs) == 0 {
		t.Fatal("undecided verdict without named outputs")
	}
	// A one-conflict limit interrupts mid-probe instead of pre-probe.
	res, err = Check(c1, c2, Options{Workers: 1, SimRounds: -1, MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Undecided || len(res.UndecidedOutputs) == 0 {
		t.Fatalf("conflict-limited incremental run: %+v", res)
	}
}
