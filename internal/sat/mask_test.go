package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// tseitinAIG is a random AND graph encoded into a solver: variables
// below npi are primary inputs, every later variable v is the AND of
// the literals f0[v] and f1[v] over earlier variables.
type tseitinAIG struct {
	npi    int
	f0, f1 []Lit
}

func randomTseitin(rng *rand.Rand, s *Solver, npi, nand int) *tseitinAIG {
	g := &tseitinAIG{npi: npi, f0: make([]Lit, npi+nand), f1: make([]Lit, npi+nand)}
	for i := 0; i < npi+nand; i++ {
		s.NewVar()
	}
	for v := npi; v < npi+nand; v++ {
		a := MkLit(rng.Intn(v), rng.Intn(2) == 0)
		b := MkLit(rng.Intn(v), rng.Intn(2) == 0)
		g.f0[v], g.f1[v] = a, b
		n := MkLit(v, false)
		s.AddClause(n.Not(), a)
		s.AddClause(n.Not(), b)
		s.AddClause(n, a.Not(), b.Not())
	}
	return g
}

// eval recomputes every variable from the PI values of a model.
func (g *tseitinAIG) eval(model func(v int) bool) []bool {
	val := make([]bool, len(g.f0))
	lit := func(l Lit) bool { return val[l.Var()] != l.Neg() }
	for v := range val {
		if v < g.npi {
			val[v] = model(v)
		} else {
			val[v] = lit(g.f0[v]) && lit(g.f1[v])
		}
	}
	return val
}

// cone returns the variable list of the fanin-closed cone of the roots.
func (g *tseitinAIG) cone(roots ...int) []int {
	in := make([]bool, len(g.f0))
	list := []int{}
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[v] {
			continue
		}
		in[v] = true
		list = append(list, v)
		if v >= g.npi {
			stack = append(stack, g.f0[v].Var(), g.f1[v].Var())
		}
	}
	return list
}

// heapMembers returns which variables the solver's order heap holds,
// after checking the heap's order and index invariants.
func heapMembers(t *testing.T, s *Solver) []bool {
	t.Helper()
	h := s.order
	in := make([]bool, s.NumVars())
	for i, v := range h.heap {
		if h.pos[v] != i {
			t.Fatalf("heap index of var %d is %d, want %d", v, h.pos[v], i)
		}
		if i > 0 && h.less(v, h.heap[(i-1)/2]) {
			t.Fatalf("heap order broken at slot %d", i)
		}
		in[v] = true
	}
	return in
}

// checkMaskedModel checks a masked Sat answer: the model, evaluated
// from its PI values, meets the assumptions and agrees with the
// solver on every cone variable.
func checkMaskedModel(t *testing.T, s *Solver, g *tseitinAIG, cone []int, assumps []Lit) {
	t.Helper()
	val := g.eval(s.Model)
	for _, a := range assumps {
		if val[a.Var()] == a.Neg() {
			t.Fatalf("model violates assumption %v", a)
		}
	}
	for _, v := range cone {
		if val[v] != s.Model(v) {
			t.Fatalf("cone var %d model %v, evaluated %v", v, s.Model(v), val[v])
		}
	}
}

// TestMaskedSolveAgreesWithFull interleaves cone-limited and
// unrestricted calls on one incremental solver over random AIG Tseitin
// encodings. A cone-limited call must return the verdict of an
// unrestricted reference solver, its model must be a real input vector
// meeting the assumptions on the cone, it must leave the global order
// heap's membership unchanged (it never pops it), and a later
// unrestricted call on the same solver must still assign every
// variable consistently. Some trials fix PIs at level 0 first, so
// cones contain assigned variables.
func TestMaskedSolveAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sats, unsats, fixedInCone := 0, 0, 0
	for trial := 0; trial < 30; trial++ {
		npi, nand := 3+rng.Intn(6), 40+rng.Intn(160)
		s, ref := New(0), New(0)
		g := randomTseitin(rand.New(rand.NewSource(int64(trial))), s, npi, nand)
		randomTseitin(rand.New(rand.NewSource(int64(trial))), ref, npi, nand)
		if trial%3 == 2 {
			for v := 0; v < npi; v += 2 {
				unit := MkLit(v, rng.Intn(2) == 0)
				s.AddClause(unit)
				ref.AddClause(unit)
			}
		}
		for q := 0; q < 20; q++ {
			x := npi + rng.Intn(nand)
			y := rng.Intn(x + 1)
			if y >= npi && rng.Intn(2) == 0 {
				// y in x's fanin: x ∧ ¬y is often Unsat.
				y = g.f0[x].Var()
			}
			assumps := []Lit{MkLit(x, rng.Intn(2) == 0), MkLit(y, rng.Intn(2) == 0)}
			cone := g.cone(x, y)
			for _, v := range cone {
				if s.assign[v] != lUndef {
					fixedInCone++ // assigned at level 0 (no call is running)
					break
				}
			}
			before := heapMembers(t, s)
			got := s.SolveMaskCtx(nil, cone, assumps...)
			want := ref.Solve(assumps...)
			if got != want {
				t.Fatalf("trial %d query %d: masked %v, full %v", trial, q, got, want)
			}
			if after := heapMembers(t, s); !slices.Equal(before, after) {
				t.Fatalf("trial %d query %d: masked call changed the order heap's members", trial, q)
			}
			if got == Unsat {
				unsats++
			} else {
				sats++
				checkMaskedModel(t, s, g, cone, assumps)
			}
			if q%4 == 3 {
				if st := s.Solve(); st != Sat {
					t.Fatalf("trial %d query %d: unmasked solve %v", trial, q, st)
				}
				val := g.eval(s.Model)
				for v := range val {
					if val[v] != s.Model(v) {
						t.Fatalf("trial %d query %d: unmasked model leaves var %d inconsistent", trial, q, v)
					}
				}
			}
		}
	}
	if sats == 0 || unsats == 0 || fixedInCone == 0 {
		t.Fatalf("degenerate instances: %d sat, %d unsat, %d cones with level-0 variables",
			sats, unsats, fixedInCone)
	}
}

// TestMaskedSolveEmptyCone pins the empty cone: no variable may be
// decided, so the answer is whatever propagation alone derives. With
// every PI assumed, propagation through the Tseitin clauses evaluates
// the whole graph, so the model is the graph's value on that input; a
// nil cone, by contrast, branches freely.
func TestMaskedSolveEmptyCone(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		npi, nand := 3+rng.Intn(6), 40+rng.Intn(160)
		s := New(0)
		g := randomTseitin(rand.New(rand.NewSource(int64(trial))), s, npi, nand)
		before := heapMembers(t, s)
		if st := s.SolveMaskCtx(nil, []int{}); st != Sat {
			t.Fatalf("trial %d: empty cone, no assumptions: %v, want Sat", trial, st)
		}
		if s.LastDecisions() != 0 {
			t.Fatalf("trial %d: empty cone made %d decisions", trial, s.LastDecisions())
		}
		assumps := make([]Lit, npi)
		for v := range assumps {
			assumps[v] = MkLit(v, rng.Intn(2) == 0)
		}
		if st := s.SolveMaskCtx(nil, []int{}, assumps...); st != Sat {
			t.Fatalf("trial %d: empty cone, PIs assumed: %v, want Sat", trial, st)
		}
		val := g.eval(s.Model)
		for v := range val {
			if val[v] != s.Model(v) {
				t.Fatalf("trial %d: var %d model %v, evaluated %v", trial, v, s.Model(v), val[v])
			}
		}
		if after := heapMembers(t, s); !slices.Equal(before, after) {
			t.Fatalf("trial %d: empty-cone calls changed the order heap's members", trial)
		}
	}
}
