package aig

import (
	"fmt"
	"math/rand"
	"testing"

	"seqver/internal/sat"
)

// refEncode is the natural recursive Tseitin encoding the iterative
// encode replaced; it pins the expected solver-variable numbering.
func refEncode(a *AIG, s *sat.Solver, m *CNFMap, e Lit) sat.Lit {
	n := e.Node()
	v, ok := m.Var(n)
	if !ok {
		v = s.NewVar()
		for int(n) >= len(m.vars) {
			m.vars = append(m.vars, 0)
		}
		m.vars[n] = int32(v) + 1
		switch {
		case a.IsConst(n):
			s.AddClause(sat.MkLit(v, true))
		case a.IsPI(n):
		default:
			f0 := refEncode(a, s, m, a.fanin0[n])
			f1 := refEncode(a, s, m, a.fanin1[n])
			nv := sat.MkLit(v, false)
			s.AddClause(nv.Not(), f0)
			s.AddClause(nv.Not(), f1)
			s.AddClause(nv, f0.Not(), f1.Not())
		}
	}
	return sat.MkLit(v, e.Compl())
}

func TestEncodeMatchesRecursiveVarOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		nv := 3 + rng.Intn(5)
		a := randomAIG(rng, nv, 60)
		sIter, sRef := sat.New(0), sat.New(0)
		mIter, mRef := &CNFMap{}, &CNFMap{}
		for i := 0; i < a.NumPOs(); i++ {
			li := a.Encode(sIter, mIter, a.PO(i))
			lr := refEncode(a, sRef, mRef, a.PO(i))
			if li != lr {
				t.Fatalf("trial %d: PO %d literal %v != reference %v", trial, i, li, lr)
			}
		}
		for n := uint32(0); n < uint32(a.NumNodes()); n++ {
			vi, oki := mIter.Var(n)
			vr, okr := mRef.Var(n)
			if vi != vr || oki != okr {
				t.Fatalf("trial %d: node %d var %d (encoded %v), reference %d (encoded %v)",
					trial, n, vi, oki, vr, okr)
			}
		}
	}
}

func TestEncodeDeepConeNoOverflow(t *testing.T) {
	// A 200k-deep AND chain: the iterative encode must not recurse once
	// per level. (The old recursive encode risked goroutine stack growth
	// to hundreds of MB on unrolled sequential cones.)
	const depth = 200_000
	a := New([]string{"a", "b"})
	e := a.PI(0)
	for i := 0; i < depth; i++ {
		e = a.And(e, a.PI(1).NotIf(i%2 == 0))
	}
	a.AddPO("o", e)
	s := sat.New(0)
	m := &CNFMap{}
	l := a.Encode(s, m, a.PO(0))
	// The chain collapses to a&b&¬b = false ... except alternating
	// polarities make it a&b&¬b only when both polarities occur, which
	// they do: the cone is constant false.
	if st := s.Solve(l); st != sat.Unsat {
		t.Fatalf("deep cone solved %v, want UNSAT", st)
	}
}

func TestEncodeSemanticsAgainstEval(t *testing.T) {
	// Force each PI assignment with assumptions; the encoded PO literal
	// must match Eval on every input of a small random AIG.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		nv := 3 + rng.Intn(3)
		a := randomAIG(rng, nv, 30)
		s := sat.New(0)
		m := &CNFMap{}
		lits := make([]sat.Lit, a.NumPOs())
		for i := range lits {
			lits[i] = a.Encode(s, m, a.PO(i))
		}
		// Every PI must be in the map (all cones reference them) — if one
		// is absent the PO does not depend on it and any var works.
		for pat := 0; pat < 1<<uint(nv); pat++ {
			in := make([]bool, nv)
			var assumps []sat.Lit
			for i := range in {
				in[i] = pat&(1<<uint(i)) != 0
				if v, ok := m.Var(a.PI(i).Node()); ok {
					assumps = append(assumps, sat.MkLit(v, !in[i]))
				}
			}
			want := a.Eval(in)
			for i, l := range lits {
				probe := l
				if !want[i] {
					probe = l.Not()
				}
				st := s.Solve(append(assumps[:len(assumps):len(assumps)], probe)...)
				if st != sat.Sat {
					t.Fatalf("trial %d pat %b PO %d: encoded value disagrees with Eval", trial, pat, i)
				}
			}
		}
	}
}

// TestEncodeAllocsPerClause guards the solver's clause store: encoding
// a fixed 2,000-AND AIG into a fresh solver averages at most 0.1
// allocations per Tseitin clause (the arenas allocate per chunk, not per
// clause). A store that copies each clause costs several per clause.
func TestEncodeAllocsPerClause(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	names := make([]string, 32)
	for i := range names {
		names[i] = fmt.Sprintf("i%d", i)
	}
	a := New(names)
	for a.NumAnds() < 2000 {
		n := uint32(a.NumNodes())
		pick := func() Lit {
			// Mostly recent nodes, so cones are deep and fanouts vary.
			lo := uint32(1)
			if n > 64 && rng.Intn(4) != 0 {
				lo = n - 64
			}
			return MkLit(lo+uint32(rng.Intn(int(n-lo))), rng.Intn(2) == 0)
		}
		a.And(pick(), pick())
	}
	a.AddPO("o", MkLit(uint32(a.NumNodes()-1), false))
	encodeAll := func() *sat.Solver {
		s := sat.New(0)
		m := &CNFMap{}
		for n := uint32(a.numPIs + 1); n < uint32(a.NumNodes()); n++ {
			a.Encode(s, m, MkLit(n, false))
		}
		return s
	}
	clauses := encodeAll().NumClauses()
	if clauses != 3*a.NumAnds() {
		t.Fatalf("%d clauses for %d ANDs, want 3 per AND", clauses, a.NumAnds())
	}
	allocs := testing.AllocsPerRun(5, func() { encodeAll() })
	if per := allocs / float64(clauses); per > 0.1 {
		t.Fatalf("%.0f allocations for %d clauses: %.3f per clause, want at most 0.1", allocs, clauses, per)
	} else {
		t.Logf("%.0f allocations for %d clauses (%.3f per clause)", allocs, clauses, per)
	}
}
