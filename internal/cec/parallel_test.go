package cec

import (
	"maps"
	"math/rand"
	"sync"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/sim"
	"seqver/internal/synth"
)

// TestWorkersVerdictEquivalence checks that the worker count never
// changes a verdict: equivalent pairs (original vs synthesized) and
// mutated pairs must agree across Workers 1..8 on the default engine.
func TestWorkersVerdictEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 6; trial++ {
		c := randomComb(rng)
		o, err := synth.OptimizeComb(c, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		mut := mutate(rng, c)
		for _, pair := range [][2]*netlist.Circuit{{c, o}, {c, mut}} {
			var base Verdict
			for wi, workers := range []int{1, 2, 4, 8} {
				res, err := Check(pair[0], pair[1], Options{
					Seed: int64(trial), Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if wi == 0 {
					base = res.Verdict
					continue
				}
				if res.Verdict != base {
					t.Fatalf("trial %d workers %d: verdict %v != serial %v",
						trial, workers, res.Verdict, base)
				}
				if res.Verdict == Inequivalent {
					assertGenuineCex(t, pair[0], pair[1], res)
				}
			}
		}
	}
}

// mutate flips one random AND/OR gate; may be functionally redundant.
func mutate(rng *rand.Rand, c *netlist.Circuit) *netlist.Circuit {
	mut := c.Clone()
	var gates []int
	for _, n := range mut.Nodes {
		if n.Kind == netlist.KindGate && (n.Op == netlist.OpAnd || n.Op == netlist.OpOr) {
			gates = append(gates, n.ID)
		}
	}
	if len(gates) == 0 {
		return mut
	}
	g := mut.Nodes[gates[rng.Intn(len(gates))]]
	if g.Op == netlist.OpAnd {
		g.Op = netlist.OpOr
	} else {
		g.Op = netlist.OpAnd
	}
	return mut
}

func assertGenuineCex(t *testing.T, c1, c2 *netlist.Circuit, res *Result) {
	t.Helper()
	in := make([]bool, len(c1.Inputs))
	for i, name := range c1.InputNames() {
		in[i] = res.Counterexample[name]
	}
	s1, s2 := sim.New(c1), sim.New(c2)
	o1, _ := s1.Step(in, sim.State{})
	o2, _ := s2.Step(in, sim.State{})
	for i := range o1 {
		if o1[i] != o2[i] {
			return
		}
	}
	t.Fatalf("bogus counterexample %v", res.Counterexample)
}

// TestUndecidedVerdictWithWorkers exercises the Undecided path through
// the worker pool: hard miters under a one-conflict budget cannot be
// proved either way, serially or in parallel. The middle product bits
// of the 6x6 multiplier pair survive the fraig stage's 1000-conflict
// proofs, so they reach the pool's SAT probes.
func TestUndecidedVerdictWithWorkers(t *testing.T) {
	c1, c2 := multiplier(6, false), multiplier(6, true)
	for _, workers := range []int{1, 4} {
		res, err := Check(c1, c2, Options{MaxConflicts: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Undecided {
			t.Fatalf("workers %d: verdict %v, want undecided under 1-conflict budget",
				workers, res.Verdict)
		}
		found := false
		for _, o := range res.Stats.PerOutput {
			if o.Status == "undecided" {
				found = true
			}
		}
		if !found {
			t.Fatalf("workers %d: no per-output undecided entry: %+v", workers, res.Stats.PerOutput)
		}
	}
}

// TestConcurrentChecks is the race-focused test: many goroutines run
// parallel Checks over the same shared circuits at once (run under
// `go test -race`).
func TestConcurrentChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(223))
	c := randomComb(rng)
	o, err := synth.OptimizeComb(c, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	mut := mutate(rng, c)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pair := [2]*netlist.Circuit{c, o}
			if g%2 == 1 {
				pair = [2]*netlist.Circuit{c, mut}
			}
			res, err := Check(pair[0], pair[1], Options{Seed: int64(g), Workers: 4})
			if err != nil {
				errs <- err
				return
			}
			if g%2 == 0 && res.Verdict != Equivalent {
				t.Errorf("goroutine %d: verdict %v", g, res.Verdict)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStatsPopulated pins the observability contract: every Check
// returns a Stats record whose per-output entries and counters are
// consistent with the Result.
func TestStatsPopulated(t *testing.T) {
	c1, c2 := xorPair(true)
	res, err := Check(c1, c2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st == nil {
		t.Fatal("no stats")
	}
	if st.Engine != "hybrid" || st.Workers < 1 {
		t.Fatalf("engine/workers: %+v", st)
	}
	if len(st.PerOutput) != res.Outputs {
		t.Fatalf("per-output entries %d != outputs %d", len(st.PerOutput), res.Outputs)
	}
	if st.SATCalls != res.SATCalls {
		t.Fatalf("stats SAT calls %d != result %d", st.SATCalls, res.SATCalls)
	}
	if st.SimPatterns == 0 || st.SimRounds == 0 {
		t.Fatalf("simulation accounting missing: %+v", st)
	}
	if st.Utilization < 0 || st.Utilization > 1 {
		t.Fatalf("utilization %v out of range", st.Utilization)
	}
	if res.Verdict == Equivalent && st.SATCalls == 0 && st.StructuralEqual == 0 {
		t.Fatalf("equivalent with no SAT calls and no structural matches: %+v", st)
	}
	// The hybrid engine must report fraig accounting on a non-trivial pair.
	res, err = Check(c1, c2, Options{Engine: "hybrid"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FraigNodesBefore == 0 {
		t.Fatalf("hybrid run missing fraig stats: %+v", res.Stats)
	}
	if res.Stats.String() == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestSimStageConfigurable pins the satellite: round count and words
// per round are options, and skipping stage 1 still decides correctly.
func TestSimStageConfigurable(t *testing.T) {
	c1, c2 := xorPair(false) // inequivalent
	res, err := Check(c1, c2, Options{SimRounds: 2, SimWordsPerRound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimRounds != 2 || res.Stats.SimWordsPerRound != 1 {
		t.Fatalf("sim shape not honored: %+v", res.Stats)
	}
	if res.Verdict != Inequivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	// Negative rounds skip stage 1 entirely; SAT must still find the cex.
	res, err = Check(c1, c2, Options{SimRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimPatterns != 0 {
		t.Fatalf("stage 1 ran despite SimRounds<0: %+v", res.Stats)
	}
	if res.Verdict != Inequivalent || res.SATCalls == 0 {
		t.Fatalf("SAT path did not decide: %+v", res)
	}
	assertGenuineCex(t, c1, c2, res)
}

// TestSimStageStopsAtDecidingRound: stage 1 takes no round past the
// lowest one that found a difference (here every round does, so a
// worker takes at most one), SimPatterns counts the rounds taken, and
// the failing output and counterexample are the same at every worker
// count.
func TestSimStageStopsAtDecidingRound(t *testing.T) {
	c1, c2 := xorPair(false)
	var want *Result
	for _, workers := range []int{1, 2, 4} {
		res, err := Check(c1, c2, Options{Workers: workers, SimRounds: 8, SimWordsPerRound: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Inequivalent {
			t.Fatalf("%d workers: verdict %v", workers, res.Verdict)
		}
		if p := res.Stats.SimPatterns; p < 2*64 || p > int64(workers)*2*64 {
			t.Errorf("%d workers: %d patterns simulated, want 128 to %d", workers, p, workers*2*64)
		}
		if want == nil {
			want = res
			continue
		}
		if res.FailingOutput != want.FailingOutput || !maps.Equal(res.Counterexample, want.Counterexample) {
			t.Errorf("%d workers: %s %v, 1 worker: %s %v", workers,
				res.FailingOutput, res.Counterexample, want.FailingOutput, want.Counterexample)
		}
	}
}
