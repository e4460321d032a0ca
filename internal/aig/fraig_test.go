package aig

import (
	"math/rand"
	"testing"
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
