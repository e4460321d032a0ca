package aig

import (
	"math/rand"
	"testing"
)

func TestSimWordsKMatchesSimWords(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		nv := 3 + rng.Intn(5)
		a := randomAIG(rng, nv, 120)
		const k = 5
		piWords := make([][]uint64, a.NumPIs())
		for i := range piWords {
			ws := make([]uint64, k)
			for j := range ws {
				ws[j] = rng.Uint64()
			}
			piWords[i] = ws
		}
		// A too-small buffer is replaced; a reused one must be fully
		// overwritten, so seed it with garbage.
		got := a.SimWordsK(make([]uint64, 3), piWords, k)
		if trial%2 == 1 {
			buf := make([]uint64, a.NumNodes()*k+7)
			for i := range buf {
				buf[i] = rng.Uint64()
			}
			got = a.SimWordsK(buf, piWords, k)
		}
		for j := 0; j < k; j++ {
			col := make([]uint64, a.NumPIs())
			for i := range col {
				col[i] = piWords[i][j]
			}
			want := a.SimWords(col)
			for n := range want {
				if got[n*k+j] != want[n] {
					t.Fatalf("trial %d word %d node %d: %x != %x",
						trial, j, n, got[n*k+j], want[n])
				}
			}
		}
	}
}
