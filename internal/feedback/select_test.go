package feedback_test

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/feedback"
	"seqver/internal/netlist"
)

func TestExposeBreaksFeedback(t *testing.T) {
	c := feedback.FSMCircuit()
	if err := cbf.CheckAcyclic(c); err == nil {
		t.Fatal("fsm should have feedback")
	}
	exposed, err := feedback.Select(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(exposed) == 0 {
		t.Fatal("nothing exposed")
	}
	x, err := feedback.NewCut(c, exposed)
	if err != nil {
		t.Fatal(err)
	}
	if err := cbf.CheckCut(x); err != nil {
		t.Fatalf("cut still cyclic: %v", err)
	}
	b, err := x.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	if err := cbf.CheckAcyclic(b); err != nil {
		t.Fatalf("still cyclic after exposure: %v", err)
	}
	// Exposed latches appear as inputs and $ns outputs.
	for _, id := range exposed {
		name := c.Nodes[id].Name
		if in := b.Lookup(name); in < 0 || b.Nodes[in].Kind != netlist.KindInput {
			t.Fatalf("missing exposed input %s", name)
		}
		if !slices.Contains(b.OutputNames(), name+"$ns") {
			t.Fatalf("missing exposed output for %s", name)
		}
	}
	// CBF construction now succeeds.
	if _, err := cbf.Unroll(b); err != nil {
		t.Fatalf("Unroll after exposure: %v", err)
	}
}

// refLatchGraph is the latch graph by definition: for every latch, the
// latches its data and enable cones read, found by a depth-first
// search through the gates.
func refLatchGraph(c *netlist.Circuit) *feedback.Graph {
	vertex := map[int]int{}
	for v, id := range c.Latches {
		vertex[id] = v
	}
	g := &feedback.Graph{LatchID: slices.Clone(c.Latches), Adj: make([][]int, len(c.Latches))}
	for j, id := range c.Latches {
		l := c.Nodes[id]
		roots := []int{l.Data()}
		if l.Enable != netlist.NoEnable {
			roots = append(roots, l.Enable)
		}
		seen := map[int]bool{}
		var srcs []int
		for len(roots) > 0 {
			n := c.Nodes[roots[len(roots)-1]]
			roots = roots[:len(roots)-1]
			if seen[n.ID] {
				continue
			}
			seen[n.ID] = true
			switch n.Kind {
			case netlist.KindLatch:
				srcs = append(srcs, vertex[n.ID])
			case netlist.KindGate:
				roots = append(roots, n.Fanins...)
			}
		}
		slices.Sort(srcs)
		for _, i := range srcs {
			g.Adj[i] = append(g.Adj[i], j)
		}
	}
	for i := range g.Adj {
		if g.Adj[i] == nil {
			g.Adj[i] = []int{}
		}
	}
	return g
}

// TestLatchGraphMatchesDefinition checks the bitset construction
// against the definition on generated regular and load-enabled
// circuits, wider than one bitset word.
func TestLatchGraphMatchesDefinition(t *testing.T) {
	var cs []*netlist.Circuit
	for seed := 0; seed < 4; seed++ {
		cs = append(cs,
			bench.Generate(bench.Spec{Name: fmt.Sprintf("lg%d", seed), Latches: 40 + 50*seed, FeedbackFrac: 0.4}),
			bench.GenerateIndustrial(bench.IndustrialSpec{Name: fmt.Sprintf("li%d", seed),
				Latches: 60 + 70*seed, FSMFrac: 0.4, MemFrac: 0.15}))
	}
	for _, c := range cs {
		g, err := feedback.LatchGraph(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g.Adj {
			if len(g.Adj[i]) == 0 {
				g.Adj[i] = []int{}
			}
		}
		if want := refLatchGraph(c); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: latch graph differs from its definition", c.Name)
		}
	}
}

// TestSelectCorpusUnchanged pins the latches the selection exposes on
// the perfbench corpus circuits (ex5-<i> and s3384-<i>, i < 8): their
// names, in order, and their number, which is perfbench's
// core.latches_exposed (306 on every ex5 circuit, 71 on s3384).
func TestSelectCorpusUnchanged(t *testing.T) {
	const want = "c1a309c6ce2bad5087e60083f8d8b5c8c42fe95983dd7bc07a1ee5161bea1687"
	h := sha256.New()
	add := func(c *netlist.Circuit, count int) {
		ids, err := feedback.Select(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != count {
			t.Errorf("%s: %d latches exposed, want %d", c.Name, len(ids), count)
		}
		fmt.Fprintf(h, "%s\n", c.Name)
		for k, id := range ids {
			if k > 0 {
				h.Write([]byte{'\n'})
			}
			h.Write([]byte(c.Nodes[id].Name))
		}
		h.Write([]byte{'\n'})
	}
	for i := 0; i < 8; i++ {
		add(bench.GenerateIndustrial(bench.IndustrialSpec{Name: fmt.Sprintf("ex5-%d", i),
			Latches: 672, FSMFrac: 305.0 / 672, MemFrac: 0.15}), 306)
		add(bench.Generate(bench.Spec{Name: fmt.Sprintf("s3384-%d", i), Latches: 183, FeedbackFrac: 0.39}), 71)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("selected latch names digest = %s, want %s", got, want)
	}
}

// TestCutNamesCycleAsSweptCircuit covers a cycle report that depends on
// dead logic: a gate nothing reads, numbered before the cycle, reaches
// it at l2, while the first node of the cycle that Sweep keeps is l1.
// The check of the cut's swept circuit names l1, and so must the cut's
// own.
func TestCutNamesCycleAsSweptCircuit(t *testing.T) {
	c := netlist.New("deadroot")
	a := c.AddInput("a")
	dead := c.AddGate("dead", netlist.OpNot, a) // reads l2 once it exists
	l1 := c.AddLatch("l1", a)
	l2 := c.AddLatch("l2", c.AddGate("g", netlist.OpAnd, l1, a))
	c.SetLatchData(l1, c.AddGate("h", netlist.OpOr, l2, a))
	c.Nodes[dead].Fanins[0] = l2
	c.AddOutput("o", l1)

	x, err := feedback.NewCut(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := x.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	want := cbf.CheckAcyclic(b)
	if want == nil || !strings.Contains(want.Error(), `"l1"`) {
		t.Fatalf("cut's circuit: %v, want a cycle through l1", want)
	}
	if err := cbf.CheckCut(x); err == nil || err.Error() != want.Error() {
		t.Fatalf("cut: %v, want %v", err, want)
	}
	if err := cbf.CheckAcyclic(c); err == nil || !strings.Contains(err.Error(), `"l2"`) {
		t.Fatalf("whole circuit: %v, want the dead gate's way in, l2", err)
	}
}
