package aig

import (
	"math/rand"
	"testing"
)

// mapStrash is the structural hash And had before its open-addressed
// table: the same constant folding and trivial cases, then a Go map
// from the ordered fanin pair to the node.
type mapStrash struct {
	nodes uint32
	m     map[[2]Lit]uint32
}

func (r *mapStrash) and(x, y Lit) Lit {
	switch {
	case x == False || y == False || x == y.Not():
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	}
	if x > y {
		x, y = y, x
	}
	if n, ok := r.m[[2]Lit{x, y}]; ok {
		return MkLit(n, false)
	}
	r.m[[2]Lit{x, y}] = r.nodes
	r.nodes++
	return MkLit(r.nodes-1, false)
}

// FuzzStrash drives random And sequences, a third of them repeating an
// earlier pair in either order, through the table (from its empty
// start, so it doubles several times, or sized up front by Grow) and
// through mapStrash: every call returns the same literal, both count
// the same nodes, and the table ends at most half full and, past its
// smallest size, at least a quarter full.
func FuzzStrash(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(2000), false)
	f.Add(int64(2), uint8(1), uint16(5000), true)
	f.Add(int64(3), uint8(12), uint16(300), false)
	f.Fuzz(func(t *testing.T, seed int64, npi uint8, ops uint16, grow bool) {
		rng := rand.New(rand.NewSource(seed))
		pis := 1 + int(npi)%16
		a := New(make([]string, pis))
		if grow {
			a.Grow(int(ops))
		}
		ref := &mapStrash{nodes: uint32(pis + 1), m: map[[2]Lit]uint32{}}
		lits := []Lit{False, True}
		for i := 0; i < pis; i++ {
			lits = append(lits, a.PI(i))
		}
		var pairs [][2]Lit
		pick := func() Lit { return lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 1) }
		for i := 0; i < int(ops); i++ {
			x, y := pick(), pick()
			if len(pairs) > 0 && rng.Intn(3) == 0 {
				p := pairs[rng.Intn(len(pairs))]
				x, y = p[1], p[0]
			}
			got, want := a.And(x, y), ref.and(x, y)
			if got != want {
				t.Fatalf("call %d: And(%d, %d) = %d, map reference %d", i, x, y, got, want)
			}
			pairs = append(pairs, [2]Lit{x, y})
			lits = append(lits, got)
		}
		if a.NumNodes() != int(ref.nodes) {
			t.Fatalf("%d nodes, map reference %d", a.NumNodes(), ref.nodes)
		}
		if 2*a.NumAnds() > len(a.strash) {
			t.Fatalf("%d ANDs in %d slots: more than half full", a.NumAnds(), len(a.strash))
		}
		if !grow && len(a.strash) > max(minTableSize, 4*a.NumAnds()) {
			t.Fatalf("%d ANDs in %d slots: doubled more than needed", a.NumAnds(), len(a.strash))
		}
	})
}

// TestAndAllocatesNothingAfterGrow pins that Grow sizes the node arrays
// and the structural hash table once: the And calls it was sized for,
// new nodes and hits alike, allocate nothing.
func TestAndAllocatesNothingAfterGrow(t *testing.T) {
	const rounds, perRound = 4, 2000
	a := New([]string{"x", "y"})
	a.Grow((rounds + 1) * perRound)
	next := a.PI(0)
	allocs := testing.AllocsPerRun(rounds, func() {
		for i := 0; i < perRound; i++ {
			prev := next
			next = a.And(prev.Not(), a.PI(i%2))
			if a.And(a.PI(i%2), prev.Not()) != next {
				t.Fatal("the commuted pair missed the table")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("And allocated %.1f times per %d calls after Grow", allocs, 2*perRound)
	}
	if a.NumAnds() < rounds*perRound {
		t.Fatalf("only %d ANDs: the loop did not add a node per call", a.NumAnds())
	}
}
