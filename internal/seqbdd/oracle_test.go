package seqbdd

import (
	"fmt"
	"math/rand"
	"testing"

	"seqver/internal/bench"
	"seqver/internal/explicit"
	"seqver/internal/netlist"
)

// TestOraclesAgree checks the symbolic traversal against the explicit
// one on generated pairs: a clone, and the clone with one output XORed
// with the conjunction of two latches. Both searches are breadth-first
// from the all-zero reset, so they must agree on the verdict, on the
// reachable product states when equivalent, and on the witness length
// when not. explicit pairs inputs by position and seqbdd by name; a
// clone keeps both the same, so the pairs are valid for either.
func TestOraclesAgree(t *testing.T) {
	checks, inequivalent := 0, 0
	for i := 0; i < 24; i++ {
		sp := bench.Spec{
			Name:         fmt.Sprintf("oracle%d", i),
			Latches:      4 + i%9,
			FeedbackFrac: []float64{0, 0.25, 0.5}[i%3],
			Inputs:       3 + i%2,
			Outputs:      2,
		}
		c1 := bench.Generate(sp)
		rng := rand.New(rand.NewSource(int64(i)))
		for _, c2 := range []*netlist.Circuit{c1.Clone(), mutateOutput(c1, rng)} {
			sym, err := CheckResetEquivalence(c1, c2, Options{})
			if err != nil {
				t.Fatal(err)
			}
			exp, err := explicit.CheckResetEquivalence(c1, c2, explicit.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checks++
			if sym.Verdict.String() != exp.Verdict.String() {
				t.Fatalf("%s: seqbdd %v, explicit %v", sp.Name, sym.Verdict, exp.Verdict)
			}
			switch sym.Verdict {
			case Equivalent:
				if sym.States != float64(exp.States) {
					t.Fatalf("%s: reachable states seqbdd %v, explicit %d", sp.Name, sym.States, exp.States)
				}
			case Inequivalent:
				inequivalent++
				if len(sym.Inputs) != len(exp.Trace) {
					t.Fatalf("%s: witness length seqbdd %d, explicit %d", sp.Name, len(sym.Inputs), len(exp.Trace))
				}
				if !replayDiffers(c1, c2, sym.Inputs) {
					t.Fatalf("%s: seqbdd witness of %d cycles does not replay", sp.Name, len(sym.Inputs))
				}
			default:
				t.Fatalf("%s: seqbdd %v", sp.Name, sym.Verdict)
			}
		}
	}
	if inequivalent == 0 {
		t.Fatal("no mutant was inequivalent: the witness comparison never ran")
	}
	t.Logf("%d checks, %d inequivalent", checks, inequivalent)
}

// mutateOutput returns a clone of c whose output i reads o XOR (l1 AND
// l2) for randomly chosen i and latches l1, l2: the outputs differ
// exactly in the reachable states where both latches hold 1.
func mutateOutput(c *netlist.Circuit, rng *rand.Rand) *netlist.Circuit {
	m := c.Clone()
	o := &m.Outputs[rng.Intn(len(m.Outputs))]
	l1 := m.Latches[rng.Intn(len(m.Latches))]
	l2 := m.Latches[rng.Intn(len(m.Latches))]
	both := m.AddGate("mut_and", netlist.OpAnd, l1, l2)
	o.Node = m.AddGate("mut_xor", netlist.OpXor, o.Node, both)
	return m
}
