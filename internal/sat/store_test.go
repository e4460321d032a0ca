package sat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refNormalize is the sort-based clause normalization AddClause
// replaced: it sorts a copy with sort.Slice, drops duplicates and
// literals false at the top level, and reports whether the clause is a
// tautology or already satisfied (dropped whole).
func refNormalize(s *Solver, lits []Lit) (out []Lit, dropped bool) {
	ls := append([]Lit(nil), lits...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	for i, l := range ls {
		if i > 0 && l == ls[i-1] {
			continue
		}
		if i > 0 && l == ls[i-1].Not() {
			return nil, true
		}
		switch s.litValue(l) {
		case lTrue:
			return nil, true
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	return out, false
}

// TestAddClauseNormalizationMatchesReference feeds random literal lists
// with duplicates, complementary pairs and literals fixed at the top
// level to AddClause and checks each outcome against refNormalize: a
// stored clause holds exactly the reference literals, a dropped or unit
// clause stores nothing, and the final verdict agrees with brute force
// over the raw clause list.
func TestAddClauseNormalizationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const nvars = 12
	stored := 0
	for trial := 0; trial < 200; trial++ {
		s := New(nvars)
		var raw [][]Lit
		add := func(lits []Lit) {
			raw = append(raw, lits)
			want, dropped := refNormalize(s, lits)
			live := s.NumClauses()
			ok := s.AddClause(lits...)
			switch {
			case dropped:
				if !ok || s.NumClauses() != live {
					t.Fatalf("trial %d: %v should be dropped whole (ok=%v, clauses %d -> %d)",
						trial, lits, ok, live, s.NumClauses())
				}
			case len(want) == 0:
				if ok {
					t.Fatalf("trial %d: %v is false at the top level, AddClause accepted it", trial, lits)
				}
			case len(want) == 1:
				if ok && (s.NumClauses() != live || s.litValue(want[0]) != lTrue) {
					t.Fatalf("trial %d: unit %v not enqueued (clauses %d -> %d)", trial, want, live, s.NumClauses())
				}
			default:
				if s.NumClauses() != live+1 {
					t.Fatalf("trial %d: %v: clauses %d -> %d, want one more", trial, lits, live, s.NumClauses())
				}
				if got := s.clauses[len(s.clauses)-1].lits; !slices.Equal(got, want) {
					t.Fatalf("trial %d: %v stored as %v, reference %v", trial, lits, got, want)
				}
				stored++
			}
		}
		for i := 0; i < 1+rng.Intn(2); i++ {
			add([]Lit{MkLit(rng.Intn(nvars), rng.Intn(2) == 0)})
		}
		for i := 0; i < 20+rng.Intn(20) && !s.unsatisf; i++ {
			n := 1 + rng.Intn(5)
			if rng.Intn(8) == 0 {
				n = 13 + rng.Intn(4) // long enough for slices.Sort
			}
			lits := make([]Lit, n)
			for j := range lits {
				switch {
				case j > 0 && rng.Intn(5) == 0:
					lits[j] = lits[rng.Intn(j)] // duplicate
				case j > 0 && rng.Intn(12) == 0:
					lits[j] = lits[rng.Intn(j)].Not() // complementary pair
				default:
					lits[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 0)
				}
			}
			add(lits)
		}
		want := Sat
		if !bruteForce3SAT(nvars, raw) {
			want = Unsat
		}
		if got := s.Solve(); got != want {
			t.Fatalf("trial %d: solver %v, brute force %v", trial, got, want)
		}
	}
	if stored < 500 {
		t.Fatalf("only %d clauses stored: the generator is degenerate", stored)
	}
}

func sortedLits(lits []Lit) []Lit {
	out := slices.Clone(lits)
	slices.Sort(out)
	return out
}

// TestArenaClausesKeepTheirLiterals checks that arena-backed original
// clauses never alias: after many propagations (whose in-place swaps
// reorder each clause's literals) and learned-database reductions,
// every original clause still holds its original literal set, and its
// literal slice has no spare capacity into a neighbour.
func TestArenaClausesKeepTheirLiterals(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const nvars = 80
	s := New(nvars)
	s.MaxLearned = 20
	want := map[*clause][]Lit{}
	for i := 0; i < 340; i++ { // clause/variable ratio near 4.26: hard
		lits := make([]Lit, 3)
		for j := range lits {
			lits[j] = MkLit(rng.Intn(nvars), rng.Intn(2) == 0)
		}
		n := len(s.clauses)
		s.AddClause(lits...)
		if len(s.clauses) > n {
			c := s.clauses[n]
			want[c] = sortedLits(c.lits)
		}
	}
	if len(want) < 200 {
		t.Fatalf("only %d clauses stored", len(want))
	}
	for q := 0; q < 40; q++ {
		assumps := []Lit{MkLit(rng.Intn(nvars), rng.Intn(2) == 0), MkLit(rng.Intn(nvars), rng.Intn(2) == 0)}
		s.Solve(assumps...)
	}
	if s.Stats.Propagations < 10_000 || s.Stats.Reductions == 0 {
		t.Fatalf("too little search to exercise the store: %d propagations, %d reductions",
			s.Stats.Propagations, s.Stats.Reductions)
	}
	live := 0
	for _, c := range s.clauses {
		if c.learned {
			continue
		}
		live++
		lits, ok := want[c]
		if !ok {
			t.Fatalf("unknown original clause %v", c.lits)
		}
		if cap(c.lits) != len(c.lits) {
			t.Fatalf("clause %v has capacity %d past its %d literals", c.lits, cap(c.lits), len(c.lits))
		}
		if got := sortedLits(c.lits); !slices.Equal(got, lits) {
			t.Fatalf("clause literals %v, originally %v", got, lits)
		}
	}
	if live != s.numOrig {
		t.Fatalf("%d live original clauses, numOrig %d", live, s.numOrig)
	}
}
