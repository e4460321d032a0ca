package aig

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzParseAiger asserts the AIGER reader never panics and that accepted
// inputs round-trip.
func FuzzParseAiger(f *testing.F) {
	f.Add("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
	f.Add("aag 1 1 0 2 0\n2\n1\n3\n")
	f.Add("aag 0 0 0 0 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		a, err := ParseAiger(strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteAiger(&sb, a); err != nil {
			t.Fatalf("accepted AIG failed to write: %v", err)
		}
		if _, err := ParseAiger(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, sb.String())
		}
	})
}

// FuzzFraig runs fraig on random AIGs of at most 12 PIs under a small
// conflict budget, so merges, refutations and budget outcomes all occur,
// and checks the result against exhaustive simulation and the
// accounting identities of FraigStats.
func FuzzFraig(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(3), uint8(0))
	f.Add(int64(2), uint8(11), uint8(149), uint8(0), uint8(1))
	f.Add(int64(3), uint8(7), uint8(90), uint8(9), uint8(2))
	f.Add(int64(4), uint8(9), uint8(120), uint8(1), uint8(3))
	f.Add(int64(5), uint8(2), uint8(10), uint8(19), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nv, ops, conflicts, words uint8) {
		a := randomAIG(rand.New(rand.NewSource(seed)), 1+int(nv)%12, 1+int(ops)%150)
		fa, st := FraigEx(a, FraigOptions{
			Seed:         seed,
			SimWords:     1 + int(words)%4,
			MaxConflicts: 1 + int64(conflicts)%20,
		})
		if !exhaustiveEqual(a, fa) {
			t.Fatalf("fraig changed the function: %+v", st)
		}
		checkFraigStats(t, a, fa, st)
	})
}
