package aig

import (
	"math/rand"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/sat"
)

func TestConstantsAndTrivialCases(t *testing.T) {
	a := New([]string{"x", "y"})
	x, y := a.PI(0), a.PI(1)
	if a.And(x, False) != False || a.And(False, y) != False {
		t.Fatal("AND with false != false")
	}
	if a.And(x, True) != x || a.And(True, y) != y {
		t.Fatal("AND with true not identity")
	}
	if a.And(x, x) != x {
		t.Fatal("idempotence broken")
	}
	if a.And(x, x.Not()) != False {
		t.Fatal("x·¬x != false")
	}
}

func TestStructuralHashing(t *testing.T) {
	a := New([]string{"x", "y"})
	x, y := a.PI(0), a.PI(1)
	f := a.And(x, y)
	g := a.And(y, x)
	if f != g {
		t.Fatal("commuted AND not hashed to same node")
	}
	if a.NumAnds() != 1 {
		t.Fatalf("NumAnds = %d, want 1", a.NumAnds())
	}
}

func TestEvalTruthTables(t *testing.T) {
	a := New([]string{"x", "y", "s"})
	x, y, s := a.PI(0), a.PI(1), a.PI(2)
	a.AddPO("and", a.And(x, y))
	a.AddPO("or", a.Or(x, y))
	a.AddPO("xor", a.Xor(x, y))
	a.AddPO("mux", a.Mux(s, x, y))
	for m := 0; m < 8; m++ {
		in := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		out := a.Eval(in)
		if out[0] != (in[0] && in[1]) {
			t.Fatalf("and(%v) = %v", in, out[0])
		}
		if out[1] != (in[0] || in[1]) {
			t.Fatalf("or(%v) = %v", in, out[1])
		}
		if out[2] != (in[0] != in[1]) {
			t.Fatalf("xor(%v) = %v", in, out[2])
		}
		want := in[1]
		if in[2] {
			want = in[0]
		}
		if out[3] != want {
			t.Fatalf("mux(%v) = %v", in, out[3])
		}
	}
}

func TestAndNOrNBalanced(t *testing.T) {
	a := New([]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	ls := make([]Lit, 8)
	for i := range ls {
		ls[i] = a.PI(i)
	}
	f := a.AndN(ls)
	a.AddPO("f", f)
	if lv := a.MaxLevel(); lv != 3 {
		t.Fatalf("8-way AND level = %d, want 3 (balanced)", lv)
	}
	in := make([]bool, 8)
	for i := range in {
		in[i] = true
	}
	if !a.Eval(in)[0] {
		t.Fatal("AndN of all-true is false")
	}
	in[5] = false
	if a.Eval(in)[0] {
		t.Fatal("AndN with a false input is true")
	}
}

func TestSimWordsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := New([]string{"a", "b", "c", "d"})
	// Random structure.
	lits := []Lit{a.PI(0), a.PI(1), a.PI(2), a.PI(3)}
	for i := 0; i < 20; i++ {
		x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, a.And(x, y))
	}
	po := lits[len(lits)-1]
	a.AddPO("o", po)
	words := a.RandomWords(rng)
	w := a.SimWords(words)
	for bit := 0; bit < 64; bit++ {
		in := make([]bool, 4)
		for i := range in {
			in[i] = words[i]&(1<<uint(bit)) != 0
		}
		want := a.Eval(in)[0]
		got := LitWord(w, po)&(1<<uint(bit)) != 0
		if got != want {
			t.Fatalf("bit %d: sim=%v eval=%v", bit, got, want)
		}
	}
}

func TestToCNFEquivalence(t *testing.T) {
	// Encode f = (a ⊕ b) and g = a·¬b + ¬a·b; the miter f ⊕ g must be
	// UNSAT.
	a := New([]string{"a", "b"})
	x, y := a.PI(0), a.PI(1)
	f := a.Xor(x, y)
	g := a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
	miter := a.Xor(f, g)
	s := sat.New(0)
	_, lits := a.ToCNF(s, []Lit{miter})
	s.AddClause(lits[0])
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("equivalent functions: miter %v, want UNSAT", st)
	}
	// And an inequivalent pair must be SAT with a correct witness.
	m2 := a.Xor(f, a.And(x, y))
	s2 := sat.New(0)
	m, lits2 := a.ToCNF(s2, []Lit{m2})
	s2.AddClause(lits2[0])
	st, model := s2.SolveModel()
	if st != sat.Sat {
		t.Fatalf("inequivalent functions: miter %v, want SAT", st)
	}
	in := make([]bool, 2)
	for i := 0; i < 2; i++ {
		if v, ok := m.Var(a.PI(i).Node()); ok {
			in[i] = model[v]
		}
	}
	if (in[0] != in[1]) == (in[0] && in[1]) {
		t.Fatalf("witness %v does not distinguish xor from and", in)
	}
}

func TestFromCircuitMatchesNetlistEval(t *testing.T) {
	src := `
.model comb
.inputs a b c
.outputs f g
.names a b c f
11- 1
0-1 1
.names a b x
10 1
01 1
.names x c g
00 1
.end
`
	c, err := netlist.ParseBLIFString(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against direct netlist evaluation over all inputs.
	order, _ := c.TopoOrder()
	for m := 0; m < 8; m++ {
		in := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		val := make([]bool, c.NumNodes())
		for i, id := range c.Inputs {
			val[id] = in[i]
		}
		for _, id := range order {
			n := c.Nodes[id]
			if n.Kind != netlist.KindGate {
				continue
			}
			fin := make([]bool, len(n.Fanins))
			for j, f := range n.Fanins {
				fin[j] = val[f]
			}
			val[id] = netlist.EvalGate(n, fin)
		}
		got := a.Eval(in)
		for i, o := range c.Outputs {
			if got[i] != val[o.Node] {
				t.Fatalf("input %v output %s: aig=%v netlist=%v", in, o.Name, got[i], val[o.Node])
			}
		}
	}
}

func TestFromCircuitRejectsLatches(t *testing.T) {
	c := netlist.New("seq")
	in := c.AddInput("i")
	l := c.AddLatch("l", in)
	c.AddOutput("o", l)
	if _, err := FromCircuit(c); err == nil {
		t.Fatal("expected error for sequential circuit")
	}
}

func TestToCircuitRoundTrip(t *testing.T) {
	a := New([]string{"a", "b", "c"})
	f := a.Or(a.And(a.PI(0), a.PI(1)), a.Xor(a.PI(1), a.PI(2)))
	a.AddPO("f", f)
	c := a.ToCircuit("rt")
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	b, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 8; m++ {
		in := []bool{m&1 != 0, m&2 != 0, m&4 != 0}
		if a.Eval(in)[0] != b.Eval(in)[0] {
			t.Fatalf("round trip differs on %v", in)
		}
	}
}

func TestConeSizeAndSupport(t *testing.T) {
	a := New([]string{"a", "b", "c"})
	f := a.And(a.PI(0), a.PI(1))
	if got := a.ConeSize(f); got != 1 {
		t.Fatalf("ConeSize = %d", got)
	}
	sup := a.Support(f)
	if len(sup) != 2 || sup[0] > sup[1] && false {
		t.Fatalf("support = %v", sup)
	}
	has := map[int]bool{}
	for _, v := range sup {
		has[v] = true
	}
	if !has[0] || !has[1] || has[2] {
		t.Fatalf("support = %v, want {0,1}", sup)
	}
	if len(a.Support(True)) != 0 {
		t.Fatal("constant has support")
	}
}

func TestTableGateConversion(t *testing.T) {
	c := netlist.New("tbl")
	x := c.AddInput("x")
	y := c.AddInput("y")
	g := c.AddTable("g", []int{x, y}, []netlist.Cube{"1-", "01"})
	c.AddOutput("o", g)
	a, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		in := []bool{m&1 != 0, m&2 != 0}
		want := in[0] || (!in[0] && in[1])
		if got := a.Eval(in)[0]; got != want {
			t.Fatalf("table eval(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestLevels(t *testing.T) {
	a := New([]string{"a", "b", "c", "d"})
	f := a.And(a.And(a.PI(0), a.PI(1)), a.And(a.PI(2), a.PI(3)))
	a.AddPO("f", f)
	if a.MaxLevel() != 2 {
		t.Fatalf("MaxLevel = %d", a.MaxLevel())
	}
}
