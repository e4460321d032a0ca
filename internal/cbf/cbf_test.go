package cbf

import (
	"math/rand"
	"strconv"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/sim"
)

// figure3 builds the paper's Figure 3 circuit: a latch trapped within a
// combinational block. b = latch(a); c = b XNOR a; d = latch(c);
// o = c AND d, giving o(t) = [a(t-1) ⊙ a(t)] · [a(t-2) ⊙ a(t-1)].
// (The paper renders ⊙ as "⊕̄"; we keep its XNOR reading, which matches
// the worked example.)
func figure3() *netlist.Circuit {
	c := netlist.New("fig3")
	a := c.AddInput("a")
	b := c.AddLatch("b", a)
	cg := c.AddGate("c", netlist.OpXnor, b, a)
	d := c.AddLatch("d", cg)
	o := c.AddGate("o", netlist.OpAnd, cg, d)
	c.AddOutput("o", o)
	return c
}

func TestFigure3CBF(t *testing.T) {
	c := figure3()
	u, err := Unroll(c)
	if err != nil {
		t.Fatal(err)
	}
	// The output depends on a at three instants: a@0, a@1, a@2.
	depths, err := Depths(u)
	if err != nil {
		t.Fatal(err)
	}
	if got := depths["a"]; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("depths[a] = %v, want [0 1 2]", got)
	}
	// Check the formula o = (a1 ⊙ a0)·(a2 ⊙ a1) on all 8 assignments.
	s := sim.New(u)
	for m := 0; m < 8; m++ {
		var in []bool
		vals := map[string]bool{}
		for i, id := range u.Inputs {
			v := m&(1<<uint(i)) != 0
			in = append(in, v)
			vals[u.Nodes[id].Name] = v
		}
		a0, a1, a2 := vals["a@0"], vals["a@1"], vals["a@2"]
		want := (a1 == a0) && (a2 == a1)
		out, _ := s.Step(in, sim.State{})
		if out[0] != want {
			t.Fatalf("m=%d: cbf=%v want=%v", m, out[0], want)
		}
	}
}

func TestSequentialDepth(t *testing.T) {
	c := figure3()
	d, err := SequentialDepth(c)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	// Purely combinational circuit has depth 0.
	cc := netlist.New("comb")
	a := cc.AddInput("a")
	g := cc.AddGate("g", netlist.OpNot, a)
	cc.AddOutput("o", g)
	if d, _ := SequentialDepth(cc); d != 0 {
		t.Fatalf("comb depth = %d", d)
	}
}

func TestCheckAcyclicRejectsFeedback(t *testing.T) {
	c := netlist.New("fb")
	a := c.AddInput("a")
	l := c.AddLatch("l", 0)
	g := c.AddGate("g", netlist.OpXor, l, a)
	c.SetLatchData(l, g) // l depends on itself through g
	c.AddOutput("o", g)
	if err := CheckAcyclic(c); err == nil {
		t.Fatal("feedback not detected")
	}
	if _, err := Unroll(c); err == nil {
		t.Fatal("Unroll accepted a feedback circuit")
	}
}

func TestCheckAcyclicEnableFeedback(t *testing.T) {
	// Feedback through an enable cone must also be detected.
	c := netlist.New("efb")
	a := c.AddInput("a")
	l := c.AddEnabledLatch("l", a, 0)
	g := c.AddGate("g", netlist.OpNot, l)
	c.Nodes[l].Enable = g
	c.AddOutput("o", l)
	if err := CheckAcyclic(c); err == nil {
		t.Fatal("enable feedback not detected")
	}
}

func TestUnrollRejectsEnabledLatches(t *testing.T) {
	c := netlist.New("en")
	d := c.AddInput("d")
	e := c.AddInput("e")
	q := c.AddEnabledLatch("q", d, e)
	c.AddOutput("o", q)
	if _, err := Unroll(c); err == nil {
		t.Fatal("Unroll accepted load-enabled latches")
	}
}

// pipeline builds a k-stage pipeline computing a delayed XOR: the Fig. 6
// shape.
func pipeline(k int) *netlist.Circuit {
	c := netlist.New("pipe")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddGate("x", netlist.OpXor, a, b)
	cur := x
	for i := 0; i < k; i++ {
		cur = c.AddLatch("l"+string(rune('0'+i)), cur)
	}
	c.AddOutput("o", cur)
	return c
}

func TestUnrollPipeline(t *testing.T) {
	c := pipeline(3)
	u, err := Unroll(c)
	if err != nil {
		t.Fatal(err)
	}
	// Output = a@3 XOR b@3: exactly two inputs.
	if len(u.Inputs) != 2 {
		t.Fatalf("unrolled inputs = %v", u.InputNames())
	}
	names := u.InputNames()
	if names[0] != "a@3" || names[1] != "b@3" {
		t.Fatalf("input names = %v", names)
	}
	if d, _ := SequentialDepth(c); d != 3 {
		t.Fatalf("depth = %d", d)
	}
}

// TestTheorem51Window cross-validates the CBF against sequential
// simulation: for random circuits and sequences longer than the depth,
// the sequential output at the last cycle equals the CBF evaluated on the
// input window (all power-up influence has flushed out).
func TestTheorem51Window(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		c := randomAcyclic(rng, 3, 8, 4)
		u, err := Unroll(c)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := SequentialDepth(c)
		seqLen := d + 2 + rng.Intn(3)
		ss := sim.New(c)
		su := sim.New(u)
		seq := ss.RandomSequence(seqLen, rng)
		st := ss.RandomState(rng)
		outs := ss.Run(seq, st)
		win, err := InputWindow(c, u, seq)
		if err != nil {
			t.Fatal(err)
		}
		cbfOut, _ := su.Step(win, sim.State{})
		for i := range cbfOut {
			if cbfOut[i] != outs[seqLen-1][i] {
				t.Fatalf("trial %d: output %d: cbf=%v seq=%v", trial, i, cbfOut[i], outs[seqLen-1][i])
			}
		}
	}
}

// randomAcyclic generates a random acyclic sequential circuit with regular
// latches: layered gates with latches inserted between layers.
func randomAcyclic(rng *rand.Rand, nIn, nGates, nLatches int) *netlist.Circuit {
	c := netlist.New("rand")
	var pool []int
	for i := 0; i < nIn; i++ {
		pool = append(pool, c.AddInput("i"+string(rune('a'+i))))
	}
	ops := []netlist.Op{netlist.OpAnd, netlist.OpOr, netlist.OpXor, netlist.OpNand, netlist.OpNot}
	latchBudget := nLatches
	for g := 0; g < nGates; g++ {
		op := ops[rng.Intn(len(ops))]
		var id int
		if op == netlist.OpNot {
			id = c.AddGate("", op, pool[rng.Intn(len(pool))])
		} else {
			id = c.AddGate("", op, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
		}
		pool = append(pool, id)
		if latchBudget > 0 && rng.Intn(3) == 0 {
			id = c.AddLatch("", id)
			latchBudget--
			pool = append(pool, id)
		}
	}
	c.AddOutput("o0", pool[len(pool)-1])
	c.AddOutput("o1", pool[rng.Intn(len(pool))])
	return c
}

// TestCBFCanonicalAcrossRestructuring: two structurally different but
// equivalent circuits unroll to combinationally equivalent circuits
// (checked by exhaustive evaluation over the unrolled inputs).
func TestCBFCanonicalAcrossRestructuring(t *testing.T) {
	// Circuit A: out = latch(latch(a AND b)).
	mk := func(variant int) *netlist.Circuit {
		c := netlist.New("v")
		a := c.AddInput("a")
		b := c.AddInput("b")
		var g int
		switch variant {
		case 0:
			g = c.AddGate("g", netlist.OpAnd, a, b)
			g = c.AddLatch("l1", g)
			g = c.AddLatch("l2", g)
		case 1: // retimed: latches moved to the inputs
			la := c.AddLatch("la1", a)
			la = c.AddLatch("la2", la)
			lb := c.AddLatch("lb1", b)
			lb = c.AddLatch("lb2", lb)
			g = c.AddGate("g", netlist.OpAnd, la, lb)
		case 2: // resynthesized: ¬(¬a ∨ ¬b), one latch each side
			na := c.AddGate("na", netlist.OpNot, a)
			nb := c.AddGate("nb", netlist.OpNot, b)
			or := c.AddGate("or", netlist.OpOr, na, nb)
			l := c.AddLatch("l1", or)
			n := c.AddGate("n", netlist.OpNot, l)
			g = c.AddLatch("l2", n)
		}
		c.AddOutput("o", g)
		return c
	}
	var unrolled []*netlist.Circuit
	for v := 0; v < 3; v++ {
		u, err := Unroll(mk(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(u.Inputs) != 2 {
			t.Fatalf("variant %d: inputs %v", v, u.InputNames())
		}
		unrolled = append(unrolled, u)
	}
	// All variants sample a@2, b@2. Compare truth tables by name-aligned
	// evaluation.
	ref := sim.New(unrolled[0])
	for v := 1; v < 3; v++ {
		s := sim.New(unrolled[v])
		if unrolled[v].InputNames()[0] != unrolled[0].InputNames()[0] ||
			unrolled[v].InputNames()[1] != unrolled[0].InputNames()[1] {
			t.Fatalf("variant %d input names %v != %v", v, unrolled[v].InputNames(), unrolled[0].InputNames())
		}
		for m := 0; m < 4; m++ {
			in := []bool{m&1 != 0, m&2 != 0}
			o1, _ := ref.Step(in, sim.State{})
			o2, _ := s.Step(in, sim.State{})
			if o1[0] != o2[0] {
				t.Fatalf("variant %d differs at %v", v, in)
			}
		}
	}
}

func TestParseTimedName(t *testing.T) {
	base, k, err := ParseTimedName("sig@12")
	if err != nil || base != "sig" || k != 12 {
		t.Fatalf("got %q %d %v", base, k, err)
	}
	// Names containing '@' split at the last one.
	base, k, err = ParseTimedName("a@b@3")
	if err != nil || base != "a@b" || k != 3 {
		t.Fatalf("got %q %d %v", base, k, err)
	}
	if _, _, err := ParseTimedName("plain"); err == nil {
		t.Fatal("expected error for undelimited name")
	}
	if _, _, err := ParseTimedName("x@y"); err == nil {
		t.Fatal("expected error for non-numeric delay")
	}
}

func TestConeReplicationCount(t *testing.T) {
	// Figure 18 intuition: logic feeding a signal needed at k delays is
	// replicated k times. A gate feeding both a direct path and a latched
	// path appears at depths 0 and 1.
	c := netlist.New("rep")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate("g", netlist.OpAnd, a, b)
	l := c.AddLatch("l", g)
	o := c.AddGate("o", netlist.OpOr, g, l)
	c.AddOutput("o", o)
	u, err := Unroll(c)
	if err != nil {
		t.Fatal(err)
	}
	// Expect gates g@0, g@1, o@0: 3 gates; inputs a@0,a@1,b@0,b@1.
	if got := u.NumGates(); got != 3 {
		t.Fatalf("unrolled gates = %d, want 3", got)
	}
	if got := len(u.Inputs); got != 4 {
		t.Fatalf("unrolled inputs = %d, want 4", got)
	}
}

func TestInputWindowTooShort(t *testing.T) {
	c := pipeline(3)
	u, _ := Unroll(c)
	if _, err := InputWindow(c, u, [][]bool{{true, false}}); err == nil {
		t.Fatal("expected too-short error")
	}
}

func TestDepthsMultiInput(t *testing.T) {
	c := netlist.New("md")
	a := c.AddInput("a")
	b := c.AddInput("b")
	l := c.AddLatch("l", a)
	g := c.AddGate("g", netlist.OpAnd, l, b)
	c.AddOutput("o", g)
	u, err := Unroll(c)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Depths(u)
	if len(d["a"]) != 1 || d["a"][0] != 1 {
		t.Fatalf("a depths %v", d["a"])
	}
	if len(d["b"]) != 1 || d["b"][0] != 0 {
		t.Fatalf("b depths %v", d["b"])
	}
}

// TestUnrollAllocsPerNode: the unrolling's memo is dense per delay and
// its nodes come from the output circuit's slabs, so what is left per
// unrolled node is its name: at most about one allocation each.
func TestUnrollAllocsPerNode(t *testing.T) {
	c := randomAcyclic(rand.New(rand.NewSource(11)), 12, 3000, 600)
	for _, n := range c.Nodes {
		if n.Kind == netlist.KindGate {
			n.Name = "g" + strconv.Itoa(n.ID) // named, as parsed circuits are
			if n.ID%8 == 0 {
				c.AddOutput("o"+n.Name, n.ID)
			}
		}
	}
	u, err := Unroll(c)
	if err != nil {
		t.Fatal(err)
	}
	nodes := u.NumNodes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Unroll(c); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(nodes); per > 1.25 {
		t.Fatalf("%.0f allocations for %d unrolled nodes: %.3f per node, want at most 1.25", allocs, nodes, per)
	} else {
		t.Logf("%.0f allocations for %d unrolled nodes (%.3f per node)", allocs, nodes, per)
	}
}
