package cec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/sim"
	"seqver/internal/synth"
)

func xorPair(structural bool) (*netlist.Circuit, *netlist.Circuit) {
	c1 := netlist.New("x1")
	a := c1.AddInput("a")
	b := c1.AddInput("b")
	g := c1.AddGate("g", netlist.OpXor, a, b)
	c1.AddOutput("o", g)

	c2 := netlist.New("x2")
	a2 := c2.AddInput("a")
	b2 := c2.AddInput("b")
	var o int
	if structural {
		na := c2.AddGate("na", netlist.OpNot, a2)
		nb := c2.AddGate("nb", netlist.OpNot, b2)
		t1 := c2.AddGate("t1", netlist.OpAnd, a2, nb)
		t2 := c2.AddGate("t2", netlist.OpAnd, na, b2)
		o = c2.AddGate("o2", netlist.OpOr, t1, t2)
	} else {
		o = c2.AddGate("o2", netlist.OpAnd, a2, b2)
	}
	c2.AddOutput("o", o)
	return c1, c2
}

func TestEquivalentAcrossEngines(t *testing.T) {
	for _, engine := range []string{"hybrid", "bdd"} {
		c1, c2 := xorPair(true)
		res, err := Check(c1, c2, Options{Engine: engine})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Verdict != Equivalent {
			t.Fatalf("%s: verdict = %v", engine, res.Verdict)
		}
	}
}

func TestInequivalentWithCounterexample(t *testing.T) {
	for _, engine := range []string{"hybrid", "bdd"} {
		c1, c2 := xorPair(false) // xor vs and
		res, err := Check(c1, c2, Options{Engine: engine})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Verdict != Inequivalent {
			t.Fatalf("%s: verdict = %v", engine, res.Verdict)
		}
		// Validate the counterexample by evaluation.
		in := []bool{res.Counterexample["a"], res.Counterexample["b"]}
		s1, s2 := sim.New(c1), sim.New(c2)
		o1, _ := s1.Step(in, sim.State{})
		o2, _ := s2.Step(in, sim.State{})
		if o1[0] == o2[0] {
			t.Fatalf("%s: counterexample %v does not distinguish", engine, res.Counterexample)
		}
	}
}

func TestDifferentInputSupports(t *testing.T) {
	// c1 mentions a dead input c; c2 does not. Still equivalent.
	c1 := netlist.New("d1")
	a := c1.AddInput("a")
	cIn := c1.AddInput("c")
	dead := c1.AddGate("dead", netlist.OpAnd, cIn, c1.AddGate("z", netlist.OpConst0))
	g := c1.AddGate("g", netlist.OpOr, a, dead)
	c1.AddOutput("o", g)

	c2 := netlist.New("d2")
	a2 := c2.AddInput("a")
	g2 := c2.AddGate("g", netlist.OpBuf, a2)
	c2.AddOutput("o", g2)

	res, err := Check(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestOutputSetMismatch(t *testing.T) {
	c1 := netlist.New("m1")
	a := c1.AddInput("a")
	c1.AddOutput("x", a)
	c2 := netlist.New("m2")
	b := c2.AddInput("a")
	c2.AddOutput("y", b)
	if _, err := Check(c1, c2, Options{}); err == nil {
		t.Fatal("mismatched output names accepted")
	}
}

func TestRejectsSequential(t *testing.T) {
	c1 := netlist.New("s")
	a := c1.AddInput("a")
	l := c1.AddLatch("l", a)
	c1.AddOutput("o", l)
	if _, err := Check(c1, c1.Clone(), Options{}); err == nil {
		t.Fatal("sequential circuit accepted")
	}
}

func TestMultiOutputPartialMismatch(t *testing.T) {
	// Two outputs; only the second differs. The failing output must be
	// identified.
	mk := func(second netlist.Op) *netlist.Circuit {
		c := netlist.New("mo")
		a := c.AddInput("a")
		b := c.AddInput("b")
		g1 := c.AddGate("g1", netlist.OpAnd, a, b)
		g2 := c.AddGate("g2", second, a, b)
		c.AddOutput("p", g1)
		c.AddOutput("q", g2)
		return c
	}
	res, err := Check(mk(netlist.OpOr), mk(netlist.OpXor), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent || res.FailingOutput != "q" {
		t.Fatalf("res = %+v", res)
	}
}

func TestCheckAgainstSynthesizedVersions(t *testing.T) {
	// Optimized combinational circuits must verify equivalent; a mutated
	// one must not.
	rng := rand.New(rand.NewSource(151))
	for trial := 0; trial < 10; trial++ {
		c := randomComb(rng)
		o, err := synth.OptimizeComb(c, synth.DefaultScript())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Check(c, o, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != Equivalent {
			t.Fatalf("trial %d: optimized version verdict %v (output %s)",
				trial, res.Verdict, res.FailingOutput)
		}
	}
}

func TestCheckMutationDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	detected := 0
	for trial := 0; trial < 10; trial++ {
		c := randomComb(rng)
		mut := c.Clone()
		// Flip a random gate op.
		var gates []int
		for _, n := range mut.Nodes {
			if n.Kind == netlist.KindGate && (n.Op == netlist.OpAnd || n.Op == netlist.OpOr) {
				gates = append(gates, n.ID)
			}
		}
		if len(gates) == 0 {
			continue
		}
		g := mut.Nodes[gates[rng.Intn(len(gates))]]
		if g.Op == netlist.OpAnd {
			g.Op = netlist.OpOr
		} else {
			g.Op = netlist.OpAnd
		}
		res, err := Check(c, mut, Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == Inequivalent {
			detected++
			// Counterexample must be genuine.
			in := make([]bool, len(c.Inputs))
			for i, name := range c.InputNames() {
				in[i] = res.Counterexample[name]
			}
			s1, s2 := sim.New(c), sim.New(mut)
			o1, _ := s1.Step(in, sim.State{})
			o2, _ := s2.Step(in, sim.State{})
			same := true
			for i := range o1 {
				if o1[i] != o2[i] {
					same = false
				}
			}
			if same {
				t.Fatalf("trial %d: bogus counterexample", trial)
			}
		} else if res.Verdict == Undecided {
			t.Fatalf("trial %d: undecided on small circuit", trial)
		}
		// Equivalent is possible if the mutation is functionally
		// redundant; no assertion.
	}
	if detected == 0 {
		t.Fatal("no mutation detected across trials")
	}
}

func randomComb(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("rc")
	var pool []int
	for i := 0; i < 5; i++ {
		pool = append(pool, c.AddInput(string(rune('a'+i))))
	}
	ops := []netlist.Op{netlist.OpAnd, netlist.OpOr, netlist.OpXor, netlist.OpNand, netlist.OpNor, netlist.OpNot}
	for g := 0; g < 15+rng.Intn(15); g++ {
		op := ops[rng.Intn(len(ops))]
		var id int
		if op == netlist.OpNot {
			id = c.AddGate("", op, pool[rng.Intn(len(pool))])
		} else {
			id = c.AddGate("", op, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
		}
		pool = append(pool, id)
	}
	c.AddOutput("o0", pool[len(pool)-1])
	c.AddOutput("o1", pool[len(pool)-2])
	return c
}

func TestBDDEngineBlowupReportsUndecided(t *testing.T) {
	// A multiplier-like structure with a tiny node budget.
	c1 := hardCircuit()
	c2 := hardCircuit()
	res, err := Check(c1, c2, Options{Engine: "bdd", BDDLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Undecided {
		t.Fatalf("verdict = %v, want undecided under tiny budget", res.Verdict)
	}
}

func hardCircuit() *netlist.Circuit {
	c := netlist.New("hard")
	n := 10
	var xs, ys []int
	for i := 0; i < n; i++ {
		xs = append(xs, c.AddInput("x"+string(rune('0'+i))))
		ys = append(ys, c.AddInput("y"+string(rune('0'+i))))
	}
	// Sum of pairwise ANDs with interleaved vars: exponential under the
	// natural order.
	acc := c.AddGate("z", netlist.OpConst0)
	for i := 0; i < n; i++ {
		p := c.AddGate("", netlist.OpAnd, xs[i], ys[(i+3)%n])
		acc = c.AddGate("", netlist.OpXor, acc, p)
	}
	c.AddOutput("o", acc)
	return c
}

func TestUndecidedUnderTinyBudget(t *testing.T) {
	// Hard miters with a starved SAT budget: the middle product bits of
	// the 6x6 multiplier pair survive the fraig stage, and their probes
	// can't finish in one conflict, so the verdict must be Undecided —
	// never a wrong answer.
	c1, c2 := multiplier(6, false), multiplier(6, true)
	// Perturb c2 structurally (same function): rebuild via synthesis.
	c2b, err := synth.OptimizeComb(c2, synth.Options{Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(c1, c2b, Options{MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict == Inequivalent {
		t.Fatalf("wrong verdict under budget: %v", res.Verdict)
	}
}

func TestMuxAndTableThroughJointAIG(t *testing.T) {
	// Exercise the mux and table conversion paths in the joint AIG.
	mk := func(useMux bool) *netlist.Circuit {
		c := netlist.New("m")
		s := c.AddInput("s")
		a := c.AddInput("a")
		b := c.AddInput("b")
		var g int
		if useMux {
			g = c.AddGate("g", netlist.OpMux, s, a, b)
		} else {
			g = c.AddTable("g", []int{s, a, b}, []netlist.Cube{"11-", "0-1"})
		}
		c.AddOutput("o", g)
		return c
	}
	res, err := Check(mk(true), mk(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("mux vs table cover: %v", res.Verdict)
	}
}

func TestVerdictStrings(t *testing.T) {
	if Equivalent.String() != "equivalent" ||
		Inequivalent.String() != "inequivalent" ||
		Undecided.String() != "undecided" {
		t.Fatal("verdict strings wrong")
	}
}

func TestBDDEngineCounterexampleValid(t *testing.T) {
	c1, c2 := xorPair(false)
	res, err := Check(c1, c2, Options{Engine: "bdd"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent || len(res.Counterexample) == 0 {
		t.Fatalf("res = %+v", res)
	}
}

// TestUnknownEngineRejected also covers the removed engines: "sat",
// which skipped fraig, and "portfolio", which raced SAT against BDD per
// miter. Each must fail loudly rather than alias to hybrid, and the
// error must name exactly the engines that are accepted.
func TestUnknownEngineRejected(t *testing.T) {
	c1, c2 := xorPair(true)
	for _, engine := range []string{"quantum", "sat", "portfolio"} {
		_, err := Check(c1, c2, Options{Engine: engine})
		if err == nil {
			t.Fatalf("unknown engine %q accepted", engine)
		}
		for _, want := range []string{engine, "(want hybrid or bdd)"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("engine %q: error %q does not name %q", engine, err, want)
			}
		}
	}
}

// TestBDDEngineLimitDuringCounterexample sweeps the BDD node limit
// around the point where the output cones fit but the counterexample's
// difference function does not: on a multiplier pair whose product
// bits p5 and p6 are swapped, that XOR can cross the limit (or the
// deadline) after the build succeeded. The engine must degrade to
// Undecided there, never panic, and never call the pair equivalent.
func TestBDDEngineLimitDuringCounterexample(t *testing.T) {
	c1 := multiplier(6, false)
	c2 := netlist.New("mul")
	prod := addMultiplier(c2, "", 6, true)
	prod[5], prod[6] = prod[6], prod[5]
	for k, p := range prod {
		c2.AddOutput(fmt.Sprintf("p%d", k), p)
	}
	for limit := 11900; limit <= 12200; limit += 5 {
		res, err := Check(c1, c2, Options{Engine: "bdd", BDDLimit: limit})
		if err != nil {
			t.Fatal(err)
		}
		switch res.Verdict {
		case Equivalent:
			t.Fatalf("limit %d: swapped outputs judged equivalent", limit)
		case Inequivalent:
			assertGenuineCex(t, c1, c2, res)
		}
	}
}
