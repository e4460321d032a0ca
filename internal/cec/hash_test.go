package cec

import (
	"context"
	"strings"
	"testing"

	"seqver/internal/netlist"
)

func parse(t *testing.T, blif string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBLIF(strings.NewReader(blif))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

// golden computes o1 = (a&b)|c and o2 = a^c through two named
// intermediate signals.
const goldenBLIF = `.model golden
.inputs a b c
.outputs o1 o2
.names a b t1
11 1
.names t1 c o1
1- 1
-1 1
.names a c o2
10 1
01 1
.end
`

// goldenPermuted is the same netlist with the input declaration order,
// gate declaration order (forward references), output order, and
// internal signal names all changed. Structure is untouched.
const goldenPermuted = `.model golden_permuted
.outputs o2 o1
.inputs c b a
.names u9 c o1
1- 1
-1 1
.names a c o2
10 1
01 1
.names a b u9
11 1
.end
`

// goldenMutated flips one cube in one gate: t1 becomes a|b instead of
// a&b.
const goldenMutated = `.model golden_mutated
.inputs a b c
.outputs o1 o2
.names a b t1
1- 1
-1 1
.names t1 c o1
1- 1
-1 1
.names a c o2
10 1
01 1
.end
`

func TestMiterHashPermutationInvariant(t *testing.T) {
	c1 := parse(t, goldenBLIF)
	c2 := parse(t, goldenPermuted)
	h11, err := MiterHash(c1, c1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h11) != 32 {
		t.Fatalf("hash %q: want 32 hex chars", h11)
	}
	h22, err := MiterHash(c2, c2)
	if err != nil {
		t.Fatal(err)
	}
	if h11 != h22 {
		t.Errorf("permuted declarations changed the miter hash: %s vs %s", h11, h22)
	}
	// Mixed pairs present the same problem too.
	h12, err := MiterHash(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if h12 != h11 {
		t.Errorf("MiterHash(c1,c2)=%s != MiterHash(c1,c1)=%s for identical structure", h12, h11)
	}
}

func TestMiterHashMutationSensitive(t *testing.T) {
	c1 := parse(t, goldenBLIF)
	cm := parse(t, goldenMutated)
	h1, err := MiterHash(c1, c1)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := MiterHash(c1, cm)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == hm {
		t.Error("single-gate mutation did not change the miter hash")
	}
	// Swapping sides changes which cone is "l$" and which "r$".
	hswap, err := MiterHash(cm, c1)
	if err != nil {
		t.Fatal(err)
	}
	if hswap == hm {
		t.Error("side swap of an asymmetric pair did not change the hash")
	}
}

func TestMiterHashRejectsBadInput(t *testing.T) {
	seq := parse(t, `.model seq
.inputs a
.outputs o
.latch a q 0
.names q o
1 1
.end
`)
	comb := parse(t, goldenBLIF)
	if _, err := MiterHash(seq, seq); err == nil {
		t.Error("latched circuit accepted")
	}
	other := parse(t, `.model other
.inputs a
.outputs different
.names a different
1 1
.end
`)
	if _, err := MiterHash(comb, other); err == nil {
		t.Error("mismatched output names accepted")
	}
}

// TestMiterHashMatchesCheck ties the key to the cache-soundness
// contract: pairs with equal hashes must get the same decided verdict.
func TestMiterHashMatchesCheck(t *testing.T) {
	c1 := parse(t, goldenBLIF)
	c2 := parse(t, goldenPermuted)
	res, err := Check(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("permuted pair: verdict %v, want equivalent", res.Verdict)
	}
	cm := parse(t, goldenMutated)
	res, err = Check(c1, cm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent {
		t.Fatalf("mutated pair: verdict %v, want inequivalent", res.Verdict)
	}
}

// TestMiterDecidedTwiceKeepsHash: one joint AIG serves the cache key
// and the check. Deciding it leaves it intact: its hash is unchanged,
// it equals MiterHash of the circuits, and a second check on it gives
// the verdict a fresh Check gives, with every engine.
func TestMiterDecidedTwiceKeepsHash(t *testing.T) {
	pairs := []struct {
		name   string
		c1, c2 *netlist.Circuit
	}{
		{"equal", multiplier(4, false), multiplier(4, true)},
		{"mutated", parse(t, goldenBLIF), parse(t, goldenMutated)},
	}
	for _, p := range pairs {
		want, err := MiterHash(p.c1, p.c2)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []string{"hybrid", "bdd"} {
			m, err := NewMiterCtx(context.Background(), p.c1, p.c2)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Check(p.c1, p.c2, Options{Engine: engine, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				res, err := m.CheckCtx(context.Background(), Options{Engine: engine, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict != fresh.Verdict || res.FailingOutput != fresh.FailingOutput {
					t.Errorf("%s/%s round %d: verdict %v on %q, fresh Check %v on %q",
						p.name, engine, round, res.Verdict, res.FailingOutput, fresh.Verdict, fresh.FailingOutput)
				}
				if got := m.Hash(); got != want {
					t.Errorf("%s/%s round %d: miter hash %s after the check, want %s", p.name, engine, round, got, want)
				}
			}
		}
	}
}
