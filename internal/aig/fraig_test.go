package aig

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// randomAIG builds a random AIG over nv PIs with extra redundancy:
// structurally different but functionally equal nodes.
func randomAIG(rng *rand.Rand, nv, ops int) *AIG {
	names := make([]string, nv)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	a := New(names)
	pool := make([]Lit, 0, nv+ops)
	for i := 0; i < nv; i++ {
		pool = append(pool, a.PI(i))
	}
	for i := 0; i < ops; i++ {
		x := pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 0)
		y := pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 0)
		switch rng.Intn(3) {
		case 0:
			pool = append(pool, a.And(x, y))
		case 1:
			pool = append(pool, a.Or(x, y))
		default:
			pool = append(pool, a.Xor(x, y))
		}
	}
	a.AddPO("o", pool[len(pool)-1])
	a.AddPO("p", pool[len(pool)/2])
	return a
}

func equalAIGs(a, b *AIG, nv int, rng *rand.Rand, rounds int) bool {
	for r := 0; r < rounds; r++ {
		in := make([]bool, nv)
		for i := range in {
			in[i] = rng.Intn(2) == 1
		}
		oa, ob := a.Eval(in), b.Eval(in)
		for i := range oa {
			if oa[i] != ob[i] {
				return false
			}
		}
	}
	return true
}

func TestFraigPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 15; trial++ {
		nv := 4 + rng.Intn(4)
		a := randomAIG(rng, nv, 40)
		f := Fraig(a, FraigOptions{Seed: int64(trial)})
		if !equalAIGs(a, f, nv, rng, 200) {
			t.Fatalf("trial %d: fraig changed function", trial)
		}
		if f.NumAnds() > a.NumAnds() {
			t.Fatalf("trial %d: fraig grew the AIG: %d -> %d", trial, a.NumAnds(), f.NumAnds())
		}
	}
}

func TestFraigMergesKnownRedundancy(t *testing.T) {
	// Build xor(a,b) twice with different structure; fraig must merge.
	a := New([]string{"a", "b"})
	x, y := a.PI(0), a.PI(1)
	x1 := a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
	// Second structure: (a+b)·¬(a·b)
	x2 := a.And(a.Or(x, y), a.And(x, y).Not())
	a.AddPO("o", a.And(x1, x2)) // equal, so o == x1
	f := Fraig(a, FraigOptions{})
	// x1 == x2, so And(x1,x2) == x1 == xor, needing at most 3 ANDs.
	if f.NumAnds() > 3 {
		t.Fatalf("fraig left %d ANDs, want <= 3", f.NumAnds())
	}
	rng := rand.New(rand.NewSource(101))
	if !equalAIGs(a, f, 2, rng, 16) {
		t.Fatal("function changed")
	}
}

func TestFraigDetectsComplementEquivalence(t *testing.T) {
	// x2 = ¬x1 structurally hidden: xnor vs xor.
	a := New([]string{"a", "b"})
	x, y := a.PI(0), a.PI(1)
	xor := a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
	xnor := a.Or(a.And(x, y), a.And(x.Not(), y.Not()))
	a.AddPO("o", a.And(xor, xnor)) // contradiction: constant false
	f := Fraig(a, FraigOptions{})
	if f.NumAnds() != 0 || f.PO(0) != False {
		t.Fatalf("fraig missed complement merge: %d ANDs, po=%v", f.NumAnds(), f.PO(0))
	}
}

func TestCompactDropsDeadNodes(t *testing.T) {
	a := New([]string{"a", "b"})
	dead := a.And(a.PI(0), a.PI(1))
	live := a.Or(a.PI(0), a.PI(1))
	_ = dead
	a.AddPO("o", live)
	c := Compact(a)
	if c.NumAnds() != 1 {
		t.Fatalf("compacted ANDs = %d, want 1", c.NumAnds())
	}
}

func TestBalanceReducesDepth(t *testing.T) {
	// Linear 8-input AND chain: depth 7 -> balanced depth 3.
	a := New([]string{"a", "b", "c", "d", "e", "f", "g", "h"})
	cur := a.PI(0)
	for i := 1; i < 8; i++ {
		cur = a.And(cur, a.PI(i))
	}
	a.AddPO("o", cur)
	if a.MaxLevel() != 7 {
		t.Fatalf("chain level = %d", a.MaxLevel())
	}
	b := Balance(a)
	if b.MaxLevel() != 3 {
		t.Fatalf("balanced level = %d, want 3", b.MaxLevel())
	}
	rng := rand.New(rand.NewSource(103))
	if !equalAIGs(a, b, 8, rng, 100) {
		t.Fatal("balance changed function")
	}
}

func TestBalancePreservesFunctionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 15; trial++ {
		nv := 4 + rng.Intn(4)
		a := randomAIG(rng, nv, 30)
		b := Balance(a)
		if !equalAIGs(a, b, nv, rng, 200) {
			t.Fatalf("trial %d: balance changed function", trial)
		}
		if b.MaxLevel() > a.MaxLevel() {
			t.Fatalf("trial %d: balance increased depth %d -> %d", trial, a.MaxLevel(), b.MaxLevel())
		}
	}
}

func TestBalanceRespectsSharedNodes(t *testing.T) {
	// A shared node is a tree boundary; balancing must not duplicate it.
	a := New([]string{"a", "b", "c"})
	sh := a.And(a.PI(0), a.PI(1))
	o1 := a.And(sh, a.PI(2))
	o2 := a.And(sh, a.PI(2).Not())
	a.AddPO("x", o1)
	a.AddPO("y", o2)
	b := Balance(a)
	if b.NumAnds() > a.NumAnds() {
		t.Fatalf("balance duplicated shared logic: %d -> %d", a.NumAnds(), b.NumAnds())
	}
}

// exhaustiveEqual compares two AIGs over every input assignment.
func exhaustiveEqual(a, b *AIG) bool {
	nv := a.NumPIs()
	in := make([]bool, nv)
	for m := 0; m < 1<<nv; m++ {
		for i := range in {
			in[i] = m>>i&1 == 1
		}
		oa, ob := a.Eval(in), b.Eval(in)
		for i := range oa {
			if oa[i] != ob[i] {
				return false
			}
		}
	}
	return true
}

// checkFraigStats asserts the accounting identities of a fraig pass.
func checkFraigStats(t *testing.T, a, f *AIG, st *FraigStats) {
	t.Helper()
	if st.NodesBefore != a.NumAnds() || st.NodesAfter != f.NumAnds() {
		t.Fatalf("stats nodes wrong: %+v (%d -> %d ands)", st, a.NumAnds(), f.NumAnds())
	}
	if st.ProveCalls+st.CutMerges != st.Merges+st.ProveFailed {
		t.Fatalf("prove calls %d + cut merges %d != merges %d + failed %d",
			st.ProveCalls, st.CutMerges, st.Merges, st.ProveFailed)
	}
	if st.CutMerges > st.Merges {
		t.Fatalf("cut merges %d > merges %d", st.CutMerges, st.Merges)
	}
	if st.Refuted > st.ProveFailed {
		t.Fatalf("refuted %d > failed %d", st.Refuted, st.ProveFailed)
	}
}

func TestFraigExDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		nv := 4 + rng.Intn(4)
		a := randomAIG(rng, nv, 60)
		f1, st1 := FraigEx(a, FraigOptions{Seed: int64(trial)})
		f2, st2 := FraigEx(a, FraigOptions{Seed: int64(trial)})
		// Refinement patterns come from SAT models of a deterministic
		// solver, so one seed must give one reduction.
		if f1.StructuralHash() != f2.StructuralHash() || *st1 != *st2 {
			t.Fatalf("trial %d: same seed, different reduction: %+v vs %+v", trial, st1, st2)
		}
		if !exhaustiveEqual(a, f1) {
			t.Fatalf("trial %d: function changed", trial)
		}
		checkFraigStats(t, a, f1, st1)
	}
}

// lateCtx has a passed deadline but a nil Err: the state a deadline
// context is in until the runtime runs its timer.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Unix(1, 0), true }

// TestFraigPassedDeadlineIsStructuralCopy pins that fraig's budget check
// reads the deadline itself: under a context whose deadline has passed
// but whose Err is still nil, the sweep attempts no proof and returns
// its input unchanged, not a copy of it.
func TestFraigPassedDeadlineIsStructuralCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		a := randomAIG(rng, 4+rng.Intn(4), 60)
		f, st := FraigExCtx(lateCtx{context.Background()}, a, FraigOptions{Seed: int64(trial)})
		if st.ProveCalls != 0 || st.Merges != 0 || st.CutMerges != 0 {
			t.Fatalf("trial %d: %d proofs, %d merges (%d cut) past the deadline",
				trial, st.ProveCalls, st.Merges, st.CutMerges)
		}
		if f != a {
			t.Fatalf("trial %d: result is not the input AIG", trial)
		}
		if st.NodesBefore != st.NodesAfter || st.NodesAfter != a.NumAnds() {
			t.Fatalf("trial %d: nodes %d -> %d, input has %d", trial, st.NodesBefore, st.NodesAfter, a.NumAnds())
		}
		if !exhaustiveEqual(a, f) {
			t.Fatalf("trial %d: function changed", trial)
		}
	}
}

// countdownCtx is canceled once its Err has been read n times: a
// budget that expires at a chosen poll in the middle of a sweep.
type countdownCtx struct {
	context.Context
	n *int
}

func (c countdownCtx) Err() error {
	if *c.n--; *c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestFraigExpiryMidSweep cancels the sweep at every poll in turn: the
// result stays function-identical over every input assignment, and the
// merges made before the cut still reach the POs, so the cut result's
// live logic is smaller than the input's.
func TestFraigExpiryMidSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shrunk := 0
	for trial := 0; trial < 8; trial++ {
		a := randomAIG(rng, 3+rng.Intn(4), 80)
		_, full := FraigEx(a, FraigOptions{Seed: int64(trial)})
		live := Compact(a).NumAnds()
		for polls := 1; ; polls++ {
			n := polls
			f, st := FraigExCtx(countdownCtx{context.Background(), &n}, a, FraigOptions{Seed: int64(trial)})
			if !exhaustiveEqual(a, f) {
				t.Fatalf("trial %d, cut after %d polls: function changed: %+v", trial, polls, st)
			}
			checkFraigStats(t, a, f, st)
			if n >= 0 {
				break // the sweep finished before the budget ran out
			}
			if st.Merges > full.Merges {
				t.Fatalf("trial %d: cut sweep merged %d, full sweep %d", trial, st.Merges, full.Merges)
			}
			switch got := Compact(f).NumAnds(); {
			case got > live:
				t.Fatalf("trial %d, cut after %d polls: live ANDs %d -> %d", trial, polls, live, got)
			case got < live:
				shrunk++
			}
		}
	}
	if shrunk == 0 {
		t.Fatal("no cut sweep kept a merge; the test exercises nothing")
	}
}

func TestFraigExReportsMerges(t *testing.T) {
	// Build an AIG with a guaranteed redundancy: XOR in its two-AND
	// sum-of-products form and in its (x|y)&!(x&y) form — structurally
	// distinct nodes the strash cannot collapse, equal functions.
	a := New([]string{"a", "b"})
	x, y := a.PI(0), a.PI(1)
	xor1 := a.Xor(x, y)
	xor2 := a.And(a.Or(x, y), a.And(x, y).Not())
	if xor1 == xor2 {
		t.Fatal("test premise broken: strash collapsed the two XOR forms")
	}
	a.AddPO("o1", xor1)
	a.AddPO("o2", xor2)
	f, st := FraigEx(a, FraigOptions{})
	if st.Merges == 0 {
		t.Fatalf("no merge found: %+v, %d -> %d ands", st, a.NumAnds(), f.NumAnds())
	}
	if f.NumAnds() >= a.NumAnds() {
		t.Fatalf("no reduction: %d -> %d ands", a.NumAnds(), f.NumAnds())
	}
}

// TestFraigRefinementSkipsRefutedCandidates builds many distinct
// functions that agree on the 256 random class-key patterns: each is
// the conjunction of a 24-PI cube (true on about one pattern in 16M)
// with a different extra literal, so all of them share the constant-0
// class. Without refinement every pair would reach SAT; each refuting
// model must instead separate most of the class at once.
func TestFraigRefinementSkipsRefutedCandidates(t *testing.T) {
	const cube, extra = 24, 12
	names := make([]string, cube+extra)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	a := New(names)
	lits := make([]Lit, cube)
	for i := range lits {
		lits[i] = a.PI(i)
	}
	c := a.AndN(lits)
	var outs []Lit
	for i := 0; i < extra; i++ {
		for _, neg := range []bool{false, true} {
			outs = append(outs, a.And(c, a.PI(cube+i).NotIf(neg)))
		}
	}
	for i, o := range outs {
		a.AddPO(fmt.Sprintf("o%d", i), o)
	}
	// Every pair of the 2*extra outputs, plus each against constant 0,
	// is a candidate pair under the static class keys.
	n := len(outs)
	pairs := n*(n-1)/2 + n
	f, st := FraigEx(a, FraigOptions{MaxClassSize: 1 << 20})
	checkFraigStats(t, a, f, st)
	if st.Merges != 0 {
		t.Fatalf("distinct functions merged: %+v", st)
	}
	if st.Refuted*4 > pairs || st.Refuted > 3*n {
		t.Fatalf("refuted %d of %d candidate pairs (%d nodes): refinement is not pruning", st.Refuted, pairs, n)
	}
	rng := rand.New(rand.NewSource(5))
	if !equalAIGs(a, f, len(names), rng, 200) {
		t.Fatal("function changed")
	}
}

// fraigPair fraigs an AIG whose first two POs compute one function and
// whose others are constant 0, and returns its statistics: the result
// must equal the input exhaustively, with the first two POs one edge
// and the others False.
func fraigPair(t *testing.T, a *AIG) *FraigStats {
	t.Helper()
	f, st := FraigEx(a, FraigOptions{})
	checkFraigStats(t, a, f, st)
	if !exhaustiveEqual(a, f) {
		t.Fatalf("function changed: %+v", st)
	}
	if f.PO(0) != f.PO(1) {
		t.Fatalf("equal outputs not merged: %+v", st)
	}
	for i := 2; i < f.NumPOs(); i++ {
		if f.PO(i) != False {
			t.Fatalf("constant output %s not merged: %+v", f.POName(i), st)
		}
	}
	return st
}

// TestFraigCutMergeSkipsSAT: a re-associated 3-input AND equals the
// original on the cut {a, b, c}, and (a&b)&(!a&c) is the constant 0
// there, so both merge without a proof.
func TestFraigCutMergeSkipsSAT(t *testing.T) {
	a := New([]string{"a", "b", "c"})
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	a.AddPO("o1", a.And(x, a.And(y, z)))
	a.AddPO("o2", a.And(a.And(x, y), z))
	a.AddPO("zero", a.And(a.And(x, y), a.And(x.Not(), z)))
	if a.PO(0) == a.PO(1) || a.PO(2) == False {
		t.Fatal("test premise broken: strash settled the pairs")
	}
	st := fraigPair(t, a)
	if st.ProveCalls != 0 || st.CutMerges != 2 {
		t.Fatalf("want two cut merges and no proof: %+v", st)
	}
}

// TestFraigWideParityMergesThroughSAT: x0^...^x7 chained in opposite
// orders share no internal function, so no cut of at most 6 leaves
// separates both roots from the PIs, and the roots merge through SAT.
func TestFraigWideParityMergesThroughSAT(t *testing.T) {
	const n = 8
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	a := New(names)
	up, down := a.PI(0), a.PI(n-1)
	for i := 1; i < n; i++ {
		up = a.Xor(up, a.PI(i))
		down = a.Xor(down, a.PI(n-1-i))
	}
	a.AddPO("up", up)
	a.AddPO("down", down)
	st := fraigPair(t, a)
	if st.Merges == st.CutMerges || st.ProveCalls == 0 {
		t.Fatalf("want a merge proved by SAT: %+v", st)
	}
}

// TestFraigCorrelatedCutFallsBackToSAT: c = p0&...&p6 and c&p0 are
// equal, but their 6-leaf cut {p0, c2, p3, ..., p6} treats p0 and
// c2 = p0&p1&p2 as independent, so the tables differ. The mismatch must
// not block the merge: SAT proves it.
func TestFraigCorrelatedCutFallsBackToSAT(t *testing.T) {
	const n = 7
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	a := New(names)
	c := a.PI(0)
	for i := 1; i < n; i++ {
		c = a.And(c, a.PI(i))
	}
	a.AddPO("c", c)
	a.AddPO("cp0", a.And(c, a.PI(0)))
	st := fraigPair(t, a)
	if st.CutMerges != 0 || st.Merges != 1 {
		t.Fatalf("want exactly one merge, proved by SAT: %+v", st)
	}
}
