package sat

import (
	"math/rand"
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

// cone returns the decision mask of the fanin-closed cone of the roots.
func (g *tseitinAIG) cone(roots ...int) []bool {
	mask := make([]bool, len(g.f0))
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mask[v] {
			continue
		}
		mask[v] = true
		if v >= g.npi {
			stack = append(stack, g.f0[v].Var(), g.f1[v].Var())
		}
	}
	return mask
}

// TestMaskedSolveAgreesWithFull interleaves cone-masked and unmasked
// calls on one incremental solver over random AIG Tseitin encodings.
// A masked call must return the verdict of an unmasked reference
// solver, its model must be a real input vector meeting the
// assumptions on the cone, and a later unmasked call on the same
// solver must still assign every variable consistently.
func TestMaskedSolveAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sats, unsats := 0, 0
	for trial := 0; trial < 30; trial++ {
		npi, nand := 3+rng.Intn(6), 40+rng.Intn(160)
		s, ref := New(0), New(0)
		g := randomTseitin(rand.New(rand.NewSource(int64(trial))), s, npi, nand)
		randomTseitin(rand.New(rand.NewSource(int64(trial))), ref, npi, nand)
		for q := 0; q < 20; q++ {
			x := npi + rng.Intn(nand)
			y := rng.Intn(x + 1)
			if y >= npi && rng.Intn(2) == 0 {
				// y in x's fanin: x ∧ ¬y is often Unsat.
				y = g.f0[x].Var()
			}
			assumps := []Lit{MkLit(x, rng.Intn(2) == 0), MkLit(y, rng.Intn(2) == 0)}
			mask := g.cone(x, y)
			got := s.SolveMaskCtx(nil, mask, assumps...)
			want := ref.Solve(assumps...)
			if got != want {
				t.Fatalf("trial %d query %d: masked %v, full %v", trial, q, got, want)
			}
			if got == Unsat {
				unsats++
			} else {
				sats++
				val := g.eval(s.Model)
				for _, a := range assumps {
					if val[a.Var()] == a.Neg() {
						t.Fatalf("trial %d query %d: model violates assumption %v", trial, q, a)
					}
				}
				for v, in := range mask {
					if in && val[v] != s.Model(v) {
						t.Fatalf("trial %d query %d: cone var %d model %v, evaluated %v",
							trial, q, v, s.Model(v), val[v])
					}
				}
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
	if sats == 0 || unsats == 0 {
		t.Fatalf("degenerate instances: %d sat, %d unsat", sats, unsats)
	}
}
