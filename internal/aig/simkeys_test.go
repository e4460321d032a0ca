package aig

import (
	"math/rand"
	"testing"
)

// drawPIWords draws k words per PI in the order FraigExCtx draws its
// own key words: from the stream seeded with seed+1, PI by PI.
func drawPIWords(a *AIG, seed int64, k int) [][]uint64 {
	rng := rand.New(rand.NewSource(seed + 1))
	ws := make([][]uint64, a.NumPIs())
	for i := range ws {
		ws[i] = make([]uint64, k)
		for j := range ws[i] {
			ws[i][j] = rng.Uint64()
		}
	}
	return ws
}

// TestFraigKeysOneDefinition: keys folded by the caller from the PI
// words fraig would draw itself must give the same AIG and the same
// statistics as letting fraig key its own classes, since both routes
// fold the same words with SimKeys.Fold and refine from the same
// stream.
func TestFraigKeysOneDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	refuted := 0
	for trial := 0; trial < 12; trial++ {
		a := randomAIG(rng, 10+rng.Intn(7), 150+rng.Intn(250))
		seed := int64(trial)
		const k = 4
		keys := NewSimKeys(a.NumNodes())
		keys.Fold(a.SimWordsK(nil, drawPIWords(a, seed, k), k), k, 0)
		fk, stk := FraigEx(a, FraigOptions{Seed: seed, Keys: keys})
		fs, sts := FraigEx(a, FraigOptions{Seed: seed})
		if fk.StructuralHash() != fs.StructuralHash() || fk.NumNodes() != fs.NumNodes() {
			t.Fatalf("trial %d: keyed and self-keyed fraig built different AIGs", trial)
		}
		if *stk != *sts {
			t.Fatalf("trial %d: keyed %+v, self-keyed %+v", trial, stk, sts)
		}
		if sts.KeyWords != k {
			t.Fatalf("trial %d: KeyWords %d, want %d", trial, sts.KeyWords, k)
		}
		refuted += sts.Refuted
	}
	if refuted == 0 {
		t.Fatal("no proof was refuted, so refinement went untested")
	}
}

// TestSimKeysMergeIsOrderFree: keys folded round by round on separate
// SimKeys, merged in any order, equal keys folded from all words in one
// pass; and a node's complement shares its key.
func TestSimKeysMergeIsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := randomAIG(rng, 12, 300)
	const k, rounds = 3, 4
	all := drawPIWords(a, 5, k*rounds)
	whole := NewSimKeys(a.NumNodes())
	whole.Fold(a.SimWordsK(nil, all, k*rounds), k*rounds, 0)

	parts := make([]*SimKeys, rounds)
	for r := range parts {
		ws := make([][]uint64, len(all))
		for i := range ws {
			ws[i] = all[i][r*k : (r+1)*k]
		}
		parts[r] = NewSimKeys(a.NumNodes())
		parts[r].Fold(a.SimWordsK(nil, ws, k), k, r*k)
	}
	merged := parts[2]
	for _, r := range []int{0, 3, 1} {
		merged.Merge(parts[r])
	}
	if merged.Words() != whole.Words() {
		t.Fatalf("merged keys cover %d words, one pass %d", merged.Words(), whole.Words())
	}
	for n := uint32(0); n < uint32(a.NumNodes()); n++ {
		if merged.classKey(n) != whole.classKey(n) || merged.polarity(n) != whole.polarity(n) {
			t.Fatalf("node %d: merged keys differ from one pass", n)
		}
	}

	// A node and its complement: append the complement of every word
	// as a second AIG node and compare the keys.
	w := a.SimWordsK(nil, all, k*rounds)
	n := a.NumNodes()
	comp := make([]uint64, 2*n*k*rounds)
	copy(comp, w)
	for i, x := range w {
		comp[n*k*rounds+i] = ^x
	}
	both := NewSimKeys(2 * n)
	both.Fold(comp, k*rounds, 0)
	for nd := uint32(0); nd < uint32(n); nd++ {
		c := nd + uint32(n)
		if both.classKey(nd) != both.classKey(c) || both.polarity(nd) == both.polarity(c) {
			t.Fatalf("node %d and its complement do not share a class key", nd)
		}
	}
}
