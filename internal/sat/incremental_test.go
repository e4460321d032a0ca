package sat

import (
	"math/rand"
	"testing"
)

// coreContains reports whether the core holds the exact literal l.
func coreContains(core []Lit, l Lit) bool {
	for _, c := range core {
		if c == l {
			return true
		}
	}
	return false
}

func TestCoreDirectContradiction(t *testing.T) {
	// x0 -> x1; assuming {x0, ¬x1} fails and both assumptions conspire.
	s := New(2)
	s.AddClause(MkLit(0, true), MkLit(1, false))
	if st := s.Solve(MkLit(0, false), MkLit(1, true)); st != Unsat {
		t.Fatalf("st=%v", st)
	}
	core := s.Core()
	if len(core) != 2 || !coreContains(core, MkLit(0, false)) || !coreContains(core, MkLit(1, true)) {
		t.Fatalf("core=%v, want both assumptions", core)
	}
}

func TestCoreExcludesIrrelevantAssumptions(t *testing.T) {
	// Chain x0 -> x1 -> x2 plus unrelated vars x3..x9. Assuming
	// {x3..x9, x0, ¬x2} must produce a core without the spectators.
	s := New(10)
	s.AddClause(MkLit(0, true), MkLit(1, false))
	s.AddClause(MkLit(1, true), MkLit(2, false))
	assumps := []Lit{
		MkLit(3, false), MkLit(4, true), MkLit(5, false), MkLit(6, true),
		MkLit(7, false), MkLit(8, true), MkLit(9, false),
		MkLit(0, false), MkLit(2, true),
	}
	if st := s.Solve(assumps...); st != Unsat {
		t.Fatalf("st=%v", st)
	}
	core := s.Core()
	if !coreContains(core, MkLit(0, false)) || !coreContains(core, MkLit(2, true)) {
		t.Fatalf("core=%v, want x0 and ¬x2", core)
	}
	for v := 3; v <= 9; v++ {
		if coreContains(core, MkLit(v, false)) || coreContains(core, MkLit(v, true)) {
			t.Fatalf("core=%v mentions spectator x%d", core, v)
		}
	}
}

func TestCoreOfContradictoryAssumptionPair(t *testing.T) {
	s := New(1)
	s.AddClause(MkLit(0, false), MkLit(0, true)) // tautology, dropped
	if st := s.Solve(MkLit(0, false), MkLit(0, true)); st != Unsat {
		t.Fatalf("st=%v", st)
	}
	core := s.Core()
	if len(core) != 2 {
		t.Fatalf("core=%v, want {x0, ¬x0}", core)
	}
}

func TestCoreNilWithoutAssumptions(t *testing.T) {
	// Intrinsically UNSAT formula: the core must be nil (no assumption
	// is to blame), both when detected at load and during search.
	s := New(1)
	s.AddClause(MkLit(0, false))
	s.AddClause(MkLit(0, true))
	if st := s.Solve(MkLit(0, false)); st != Unsat {
		t.Fatal("want UNSAT")
	}
	if s.Core() != nil {
		t.Fatalf("core=%v, want nil for intrinsic UNSAT", s.Core())
	}
}

func TestCoreClearedOnSat(t *testing.T) {
	s := New(2)
	s.AddClause(MkLit(0, true), MkLit(1, false))
	if s.Solve(MkLit(0, false), MkLit(1, true)) != Unsat || s.Core() == nil {
		t.Fatal("setup: want UNSAT with core")
	}
	if s.Solve(MkLit(0, false)) != Sat {
		t.Fatal("want SAT")
	}
	if s.Core() != nil {
		t.Fatalf("core=%v not cleared by a SAT call", s.Core())
	}
}

func TestCoreIsItselfUnsat(t *testing.T) {
	// Property: re-solving under just the reported core must stay UNSAT.
	rng := rand.New(rand.NewSource(7))
	const nvars = 12
	for trial := 0; trial < 60; trial++ {
		s := New(nvars)
		ok := true
		for i := 0; i < 24+rng.Intn(20); i++ {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 0)
			}
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		var assumps []Lit
		for v := 0; v < nvars; v++ {
			if rng.Intn(2) == 0 {
				assumps = append(assumps, MkLit(v, rng.Intn(2) == 0))
			}
		}
		if s.Solve(assumps...) != Unsat {
			continue
		}
		core := s.Core()
		if core == nil {
			// Intrinsic UNSAT: nothing to check.
			continue
		}
		for _, c := range core {
			if !coreContains(assumps, c) {
				t.Fatalf("trial %d: core lit %v not among assumptions %v", trial, c, assumps)
			}
		}
		if s.Solve(core...) != Unsat {
			t.Fatalf("trial %d: core %v of %v is not itself UNSAT", trial, core, assumps)
		}
	}
}

func TestReduceDBKeepsVerdictsCorrect(t *testing.T) {
	// Force aggressive reductions with a tiny cap and check random
	// instances against brute force — clause deletion must never flip a
	// verdict or corrupt the solver for later incremental calls.
	rng := rand.New(rand.NewSource(99))
	const nvars = 10
	for trial := 0; trial < 60; trial++ {
		clauses := make([][]Lit, 38+rng.Intn(10))
		for i := range clauses {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 0)
			}
			clauses[i] = cl
		}
		s := New(nvars)
		s.MaxLearned = 6
		ok := true
		for _, cl := range clauses {
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		var got Status
		if !ok {
			got = Unsat
		} else {
			got = s.Solve()
			// A second probe on the reduced database must agree.
			if again := s.Solve(); again != got {
				t.Fatalf("trial %d: verdict changed %v -> %v after reduction", trial, got, again)
			}
		}
		want := Sat
		if !bruteForce3SAT(nvars, clauses) {
			want = Unsat
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v (reductions=%d deleted=%d)",
				trial, got, want, s.Stats.Reductions, s.Stats.Deleted)
		}
	}
}

func TestReduceDBTriggersAndShrinks(t *testing.T) {
	// Pigeonhole (5 pigeons, 4 holes) generates plenty of conflicts; a
	// small cap must provoke reductions and keep the live learned count
	// near the cap rather than at Stats.Learned.
	s := New(0)
	s.MaxLearned = 16
	addPigeonhole(s, 5)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("st=%v", st)
	}
	if s.Stats.Reductions == 0 {
		t.Fatalf("no reductions despite cap (learned=%d)", s.Stats.Learned)
	}
	if s.NumLearned() > 2*16+8 {
		t.Fatalf("live learned %d far above cap", s.NumLearned())
	}
	if s.Stats.Deleted == 0 {
		t.Fatal("Stats.Deleted not accounted")
	}
}

func TestReduceDBReclaimsTopLevelReasons(t *testing.T) {
	// A binary clause that unit-propagates at the top level becomes the
	// propagation's antecedent, and it is satisfied forever after. A
	// reduction must still reclaim it: level-0 reasons are released,
	// never dereferenced, so such clauses are not locked.
	s := New(0)
	s.MaxLearned = 16
	addPigeonhole(s, 5)
	orig := s.NumClauses()
	x := s.NewVar()
	for i := 0; i < 70; i++ {
		s.AddClause(MkLit(x, false), MkLit(s.NewVar(), true)) // (x ∨ ¬a)
	}
	s.AddClause(MkLit(x, true)) // ¬x unit: every binary propagates ¬a
	if st := s.Solve(); st != Unsat {
		t.Fatalf("st=%v", st)
	}
	if s.Stats.Reductions == 0 {
		t.Fatalf("no reductions despite cap (learned=%d)", s.Stats.Learned)
	}
	if s.numOrig > orig {
		t.Fatalf("%d top-level reason clauses survived reduction", s.numOrig-orig)
	}
}

// addPigeonhole encodes n pigeons into n-1 holes (UNSAT).
func addPigeonhole(s *Solver, n int) {
	holes := n - 1
	v := func(p, h int) int { return p*holes + h }
	for p := 0; p < n; p++ {
		cl := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			cl[h] = MkLit(v(p, h), false)
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < n; p1++ {
			for p2 := p1 + 1; p2 < n; p2++ {
				s.AddClause(MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
}
