package feedback

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/sim"
)

// graphFromEdges builds a Graph with n vertices and the given edges.
func graphFromEdges(n int, edges [][2]int) *Graph {
	g := &Graph{LatchID: make([]int, n), Adj: make([][]int, n)}
	for i := range g.LatchID {
		g.LatchID[i] = i
	}
	for _, e := range edges {
		g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
	}
	return g
}

func mustLatchGraph(t *testing.T, c *netlist.Circuit) *Graph {
	t.Helper()
	g, err := LatchGraph(c)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// breakFeedback selects c's feedback latches and exposes them.
func breakFeedback(t *testing.T, c *netlist.Circuit, protected map[int]bool) (*netlist.Circuit, []int) {
	t.Helper()
	ids, err := Select(c, protected)
	if err != nil {
		t.Fatal(err)
	}
	return exposeCircuit(t, c, ids), ids
}

// exposeCircuit builds c with the given latches exposed.
func exposeCircuit(t *testing.T, c *netlist.Circuit, ids []int) *netlist.Circuit {
	t.Helper()
	x, err := NewCut(c, ids)
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLatchGraphShape(t *testing.T) {
	// l1 -> l2 (l2's data cone reads l1); l2 -> l1 (cycle); l3 isolated.
	c := netlist.New("g")
	a := c.AddInput("a")
	l1 := c.AddLatch("l1", 0)
	l2 := c.AddLatch("l2", 0)
	l3 := c.AddLatch("l3", a)
	g1 := c.AddGate("g1", netlist.OpAnd, l1, a)
	g2 := c.AddGate("g2", netlist.OpOr, l2, a)
	c.SetLatchData(l2, g1)
	c.SetLatchData(l1, g2)
	c.AddOutput("o", l3)
	g := mustLatchGraph(t, c)
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// vertex order follows c.Latches: [l1, l2, l3].
	if len(g.Adj[0]) != 1 || g.Adj[0][0] != 1 {
		t.Fatalf("adj[l1] = %v", g.Adj[0])
	}
	if len(g.Adj[1]) != 1 || g.Adj[1][0] != 0 {
		t.Fatalf("adj[l2] = %v", g.Adj[1])
	}
	if len(g.Adj[2]) != 0 {
		t.Fatalf("adj[l3] = %v", g.Adj[2])
	}
	if !slices.Equal(g.LatchID, []int{l1, l2, l3}) {
		t.Fatalf("LatchID = %v, want %v", g.LatchID, []int{l1, l2, l3})
	}
}

func TestLatchGraphSelfLoopsAndSharedCones(t *testing.T) {
	// s reads itself through a gate; r reads itself directly; t and u
	// share a cone over s and r, and u also reads r twice. Each list
	// is ascending and has every source once.
	c := netlist.New("self")
	a := c.AddInput("a")
	s := c.AddLatch("s", 0)
	r := c.AddLatch("r", 0)
	c.SetLatchData(r, r)
	c.SetLatchData(s, c.AddGate("sg", netlist.OpXor, s, a))
	shared := c.AddGate("sh", netlist.OpAnd, s, r)
	tl := c.AddLatch("t", shared)
	u := c.AddLatch("u", c.AddGate("ug", netlist.OpOr, shared, r, r))
	c.AddOutput("o", c.AddGate("o", netlist.OpXor, tl, u))
	g := mustLatchGraph(t, c)
	want := [][]int{{0, 2, 3}, {1, 2, 3}, nil, nil} // [s r t u]
	for v, w := range want {
		if !slices.Equal(g.Adj[v], w) {
			t.Fatalf("adj[%d] = %v, want %v (all %v)", v, g.Adj[v], w, g.Adj)
		}
	}
	sel := MFVS(g, nil)
	if !slices.Equal(sel, []int{0, 1}) {
		t.Fatalf("MFVS = %v, want both self-loops [0 1]", sel)
	}
}

func TestLatchGraphCombinationalCycle(t *testing.T) {
	c := netlist.New("comb")
	a := c.AddInput("a")
	g1 := c.AddGate("g1", netlist.OpAnd, a, a)
	g2 := c.AddGate("g2", netlist.OpNot, g1)
	c.Nodes[g1].Fanins[1] = g2
	c.AddOutput("o", c.AddLatch("l", g2))
	if _, err := LatchGraph(c); err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("err = %v, want a combinational cycle", err)
	}
	if _, err := Select(c, nil); err == nil {
		t.Fatal("Select accepted a combinational cycle")
	}
}

func TestLatchGraphEnableEdges(t *testing.T) {
	// l2's ENABLE cone reads l1: edge l1 -> l2.
	c := netlist.New("ge")
	a := c.AddInput("a")
	l1 := c.AddLatch("l1", a)
	l2 := c.AddEnabledLatch("l2", a, l1)
	c.AddOutput("o", l2)
	g := mustLatchGraph(t, c)
	if len(g.Adj[0]) != 1 || g.Adj[0][0] != 1 {
		t.Fatalf("enable edge missing: %v", g.Adj)
	}

	// Enable-only dependencies: m's data is an input and its enable
	// reads m itself and k, so m is a self-loop and k feeds m through
	// the enable alone; n's enable is the latch k itself.
	c = netlist.New("ge2")
	a = c.AddInput("a")
	k := c.AddLatch("k", a)
	m := c.AddEnabledLatch("m", a, a)
	c.Nodes[m].Enable = c.AddGate("me", netlist.OpAnd, m, k)
	n := c.AddEnabledLatch("n", a, k)
	c.AddOutput("o", c.AddGate("o", netlist.OpXor, m, n))
	g = mustLatchGraph(t, c)
	want := [][]int{{1, 2}, {1}, nil} // [k m n]
	for v, w := range want {
		if !slices.Equal(g.Adj[v], w) {
			t.Fatalf("adj[%d] = %v, want %v", v, g.Adj[v], w)
		}
	}
	ids, err := Select(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []int{m}) {
		t.Fatalf("Select = %v, want the enable self-loop [%d]", ids, m)
	}
}

func TestSCCs(t *testing.T) {
	// 0<->1 form an SCC; 2->3->4->2 form another; 5 alone.
	g := graphFromEdges(6, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {1, 2}, {4, 5}})
	comps := SCCs(g)
	sizes := map[int]int{}
	for _, comp := range comps {
		sizes[len(comp)]++
	}
	if sizes[2] != 1 || sizes[3] != 1 || sizes[1] != 1 {
		t.Fatalf("components = %v", comps)
	}
}

func TestSCCsReverseTopological(t *testing.T) {
	// Chain 0 -> 1 -> 2: components come out callees-first.
	g := graphFromEdges(3, [][2]int{{0, 1}, {1, 2}})
	comps := SCCs(g)
	if len(comps) != 3 {
		t.Fatalf("comps = %v", comps)
	}
	pos := map[int]int{}
	for i, comp := range comps {
		pos[comp[0]] = i
	}
	if !(pos[2] < pos[1] && pos[1] < pos[0]) {
		t.Fatalf("not reverse topological: %v", comps)
	}
}

func TestMFVSSelfLoopMandatory(t *testing.T) {
	g := graphFromEdges(3, [][2]int{{0, 0}, {1, 2}})
	sel := MFVS(g, nil)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("sel = %v", sel)
	}
}

func TestMFVSSimpleCycle(t *testing.T) {
	g := graphFromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	sel := MFVS(g, nil)
	if len(sel) != 1 {
		t.Fatalf("single cycle needs one vertex, got %v", sel)
	}
}

func TestMFVSTwoDisjointCycles(t *testing.T) {
	g := graphFromEdges(6, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}, {5, 5}})
	sel := MFVS(g, nil)
	if len(sel) != 3 {
		t.Fatalf("want 3 vertices (one per cycle), got %v", sel)
	}
}

func TestMFVSAcyclicGraphEmpty(t *testing.T) {
	g := graphFromEdges(4, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if sel := MFVS(g, nil); len(sel) != 0 {
		t.Fatalf("acyclic graph selected %v", sel)
	}
}

func TestMFVSPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(12)
		var edges [][2]int
		for i := 0; i < n*2; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}
		g := graphFromEdges(n, edges)
		sel := MFVS(g, nil)
		removed := make([]bool, n)
		for _, v := range sel {
			removed[v] = true
		}
		if !isAcyclicWithout(g, removed) {
			t.Fatalf("trial %d: MFVS does not break all cycles", trial)
		}
		// Inclusion-minimality: every selected vertex is necessary.
		for _, v := range sel {
			removed[v] = false
			if isAcyclicWithout(g, removed) {
				t.Fatalf("trial %d: vertex %d redundant in %v", trial, v, sel)
			}
			removed[v] = true
		}
	}
}

func TestMFVSProtected(t *testing.T) {
	// Cycle 0<->1 where 0 is protected: 1 must be chosen.
	g := graphFromEdges(2, [][2]int{{0, 1}, {1, 0}})
	sel := MFVS(g, []bool{true, false})
	if len(sel) != 1 || sel[0] != 1 {
		t.Fatalf("sel = %v, want [1]", sel)
	}
	// If both are protected the cycle must still be broken.
	sel = MFVS(g, []bool{true, true})
	if len(sel) != 1 {
		t.Fatalf("sel = %v", sel)
	}
}

// fsmCircuit builds a 2-latch FSM with cross feedback plus a pipeline
// latch, the Figure 15 shape.
func fsmCircuit() *netlist.Circuit {
	c := netlist.New("fsm")
	in := c.AddInput("in")
	s0 := c.AddLatch("s0", 0)
	s1 := c.AddLatch("s1", 0)
	n0 := c.AddGate("n0", netlist.OpXor, s1, in)
	n1 := c.AddGate("n1", netlist.OpAnd, s0, in)
	c.SetLatchData(s0, n0)
	c.SetLatchData(s1, n1)
	p := c.AddLatch("p", n0)
	o := c.AddGate("o", netlist.OpOr, p, s1)
	c.AddOutput("o", o)
	return c
}

func TestExposePreservesSingleStepBehaviour(t *testing.T) {
	// The cut circuit, driven with the latch value on the pseudo-input,
	// computes the same outputs and the same next-state values as one
	// step of the original.
	c := fsmCircuit()
	b, _ := breakFeedback(t, c, nil)
	rng := rand.New(rand.NewSource(73))
	sc, sb := sim.New(c), sim.New(b)
	for trial := 0; trial < 40; trial++ {
		st := sc.RandomState(rng)
		in := []bool{rng.Intn(2) == 1}
		outC, nextC := sc.Step(in, st)

		// Build b's inputs: original inputs plus exposed latch values.
		inB := make([]bool, len(b.Inputs))
		stB := make(sim.State, len(b.Latches))
		stIdx := map[string]int{}
		for i, id := range c.Latches {
			stIdx[c.Nodes[id].Name] = i
		}
		for i, id := range b.Inputs {
			name := b.Nodes[id].Name
			if j, ok := stIdx[name]; ok {
				inB[i] = st[j]
			} else {
				inB[i] = in[0]
			}
		}
		for i, id := range b.Latches {
			stB[i] = st[stIdx[b.Nodes[id].Name]]
		}
		outB, _ := sb.Step(inB, stB)
		// Original POs come first in b.Outputs order? Outputs were
		// appended: original outputs then $ns outputs.
		for i := range c.Outputs {
			if outB[i] != outC[i] {
				t.Fatalf("trial %d: PO %s differs", trial, c.Outputs[i].Name)
			}
		}
		for i := len(c.Outputs); i < len(b.Outputs); i++ {
			name := b.Outputs[i].Name
			base := name[:len(name)-3] // strip "$ns"
			if outB[i] != nextC[stIdx[base]] {
				t.Fatalf("trial %d: next-state %s differs", trial, base)
			}
		}
	}
}

func TestExposeEnabledLatch(t *testing.T) {
	// Exposing an enabled latch must route enable·data + ¬enable·state
	// to the $ns output.
	c := netlist.New("en")
	d := c.AddInput("d")
	e := c.AddInput("e")
	q := c.AddEnabledLatch("q", d, e)
	c.AddOutput("o", q)
	b := exposeCircuit(t, c, []int{q})
	s := sim.New(b)
	// inputs of b: d, e, q(pseudo). Try e=0: ns == q; e=1: ns == d.
	idx := map[string]int{}
	for i, id := range b.Inputs {
		idx[b.Nodes[id].Name] = i
	}
	in := make([]bool, len(b.Inputs))
	in[idx["d"]], in[idx["e"]], in[idx["q"]] = true, false, false
	out, _ := s.Step(in, sim.State{})
	if out[1] != false { // hold
		t.Fatal("enabled cut: hold path wrong")
	}
	in[idx["e"]] = true
	out, _ = s.Step(in, sim.State{})
	if out[1] != true { // load d
		t.Fatal("enabled cut: load path wrong")
	}
}

func TestExposeErrors(t *testing.T) {
	c := netlist.New("e")
	a := c.AddInput("a")
	g := c.AddGate("g", netlist.OpNot, a)
	c.AddOutput("o", g)
	if _, err := NewCut(c, []int{g}); err == nil {
		t.Fatal("exposed a non-latch")
	}
	l := c.AddLatch("", a)
	if _, err := NewCut(c, []int{l}); err == nil {
		t.Fatal("exposed an unnamed latch")
	}
}

// TestExposeNameClash: a latch whose exposure would add a name the
// circuit already has is an error naming the clash, from NewCut.
func TestExposeNameClash(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(c *netlist.Circuit, q int)
		clash string
	}{
		{"node named <latch>$nsmux of an enabled latch", func(c *netlist.Circuit, q int) {
			c.AddOutput("o2", c.AddGate("q$nsmux", netlist.OpNot, q))
		}, `"q$nsmux"`},
		{"node named <latch>$ns", func(c *netlist.Circuit, q int) {
			c.AddOutput("o2", c.AddGate("q$ns", netlist.OpNot, q))
		}, `"q$ns"`},
		{"output named <latch>$ns", func(c *netlist.Circuit, q int) {
			c.AddOutput("q$ns", q)
		}, `"q$ns"`},
	} {
		c := netlist.New("clash")
		d := c.AddInput("d")
		e := c.AddInput("e")
		q := c.AddEnabledLatch("q", d, e)
		c.AddOutput("o", q)
		tc.build(c, q)
		if _, err := NewCut(c, []int{q}); err == nil || !strings.Contains(err.Error(), tc.clash) {
			t.Errorf("%s: NewCut err = %v, want one naming %s", tc.name, err, tc.clash)
		}
	}
	// A regular latch adds no mux, so a node named <latch>$nsmux is fine.
	c := netlist.New("noclash")
	d := c.AddInput("d")
	q := c.AddLatch("q", d)
	c.AddOutput("o", c.AddGate("q$nsmux", netlist.OpNot, q))
	b := exposeCircuit(t, c, []int{q})
	if b.Lookup("q$nsmux") < 0 || !slices.Equal(b.OutputNames(), []string{"o", "q$ns"}) {
		t.Errorf("exposing a regular latch beside q$nsmux: outputs %v", b.OutputNames())
	}
}

func TestBreakFeedbackProtected(t *testing.T) {
	c := fsmCircuit()
	// Protect s0: only s1 (or others) may be exposed.
	prot := map[int]bool{c.MustLookup("s0"): true}
	_, exposed := breakFeedback(t, c, prot)
	for _, id := range exposed {
		if c.Nodes[id].Name == "s0" {
			t.Fatal("protected latch exposed despite alternative")
		}
	}
}

// TestCutCircuit pins the circuit a cut builds, as BLIF: a regular
// exposed latch r, a load-enabled exposed latch p (exposed first), an
// unexposed latch s and a dead gate. The "$ns" outputs follow the
// circuit's own in exposure order; p's is driven by "p$nsmux" (enable,
// data, latch); the inputs are in node-ID order, exposed latches among
// them; and the dead gate is swept, which renumbers what follows it.
func TestCutCircuit(t *testing.T) {
	c := netlist.New("pin")
	a := c.AddInput("a")
	r := c.AddLatch("r", a)
	e := c.AddInput("e")
	s := c.AddLatch("s", a)
	c.AddGate("dead", netlist.OpNot, a)
	p := c.AddEnabledLatch("p", a, e)
	c.SetLatchData(r, c.AddGate("g", netlist.OpAnd, a, s))
	h := c.AddGate("h", netlist.OpXor, r, p)
	c.SetLatchData(p, h)
	c.SetLatchData(s, c.AddGate("k", netlist.OpOr, r, p))
	c.AddOutput("o", h)

	x, err := NewCut(c, []int{p, r})
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.WriteBLIF(&sb, b); err != nil {
		t.Fatal(err)
	}
	const want = `.model pin
.inputs a r e p
.outputs o p$ns r$ns
.latch k s re clk 3
.names a s g
11 1
.names r p h
10 1
01 1
.names r p k
1- 1
-1 1
.names e h p p$nsmux
11- 1
0-1 1
.names h o
1 1
.names p$nsmux p$ns
1 1
.names g r$ns
1 1
.end
`
	if sb.String() != want {
		t.Errorf("cut's circuit:\n%s\nwant:\n%s", sb.String(), want)
	}
	// The swept IDs: the dead gate (node 4) is gone, and the cut's own
	// numbering of the survivors and its gate count agree.
	if id := b.Lookup("p$nsmux"); id != 8 || len(b.Nodes) != 9 {
		t.Errorf("p$nsmux is node %d of %d, want 8 of 9", id, len(b.Nodes))
	}
	for id := 0; id < x.NumNodes(); id++ {
		if name := x.Node(id).Name; name != "dead" && x.SweptID(id) != b.Lookup(name) {
			t.Errorf("%s: cut's swept ID %d, circuit's %d", name, x.SweptID(id), b.Lookup(name))
		}
	}
	if x.NumGates() != b.NumGates() {
		t.Errorf("cut counts %d gates, its circuit has %d", x.NumGates(), b.NumGates())
	}
}
