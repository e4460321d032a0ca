package seqbdd

import (
	"slices"
	"strings"
	"testing"

	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/sim"
)

// counterN builds an n-bit binary counter with enable input and the MSB
// as output.
func counterN(n int) *netlist.Circuit {
	c := netlist.New("cnt")
	en := c.AddInput("en")
	var bits []int
	for i := 0; i < n; i++ {
		bits = append(bits, c.AddLatch("b"+string(rune('0'+i)), 0))
	}
	carry := en
	for i := 0; i < n; i++ {
		sum := c.AddGate("", netlist.OpXor, bits[i], carry)
		carry = c.AddGate("", netlist.OpAnd, bits[i], carry)
		c.SetLatchData(bits[i], sum)
	}
	c.AddOutput("msb", bits[n-1])
	return c
}

func TestSelfEquivalence(t *testing.T) {
	c := counterN(4)
	res, err := CheckResetEquivalence(c, c.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
	if res.States != 16*16 && res.States != 16 {
		// Product of two identical counters stays on the diagonal:
		// exactly 16 reachable product states.
		t.Logf("states = %v", res.States)
	}
	if res.States != 16 {
		t.Fatalf("reachable product states = %v, want 16 (diagonal)", res.States)
	}
}

func TestInequivalentCounter(t *testing.T) {
	c1 := counterN(3)
	c2 := counterN(3)
	// Mutate: output the complement of the MSB.
	msb := c2.Outputs[0].Node
	inv := c2.AddGate("inv", netlist.OpNot, msb)
	c2.Outputs[0].Node = inv
	res, err := CheckResetEquivalence(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestDeepBugFound(t *testing.T) {
	// A bug only visible after 2^(n-1) steps: MSB xor'ed wrongly.
	c1 := counterN(4)
	c2 := netlist.New("cnt")
	en := c2.AddInput("en")
	var bits []int
	for i := 0; i < 4; i++ {
		bits = append(bits, c2.AddLatch("b"+string(rune('0'+i)), 0))
	}
	carry := en
	for i := 0; i < 4; i++ {
		var sum int
		if i == 3 {
			sum = c2.AddGate("", netlist.OpOr, bits[i], carry) // bug
		} else {
			sum = c2.AddGate("", netlist.OpXor, bits[i], carry)
		}
		nc := c2.AddGate("", netlist.OpAnd, bits[i], carry)
		c2.SetLatchData(bits[i], sum)
		carry = nc
	}
	c2.AddOutput("msb", bits[3])
	res, err := CheckResetEquivalence(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The OR bug differs from XOR only when bit3=1 and carry=1, i.e.
	// wrap-around at step 16: traversal must reach it.
	if res.Verdict != Inequivalent {
		t.Fatalf("verdict = %v after %d iterations", res.Verdict, res.Iterations)
	}
}

func TestRetimedEquivalence(t *testing.T) {
	// Retiming preserves reset equivalence only up to latency/encoding;
	// here retiming an acyclic pipeline keeps the all-zero reset
	// behaviour identical because the moved latches still power up zero
	// and the logic is inverter-free along moved paths... use an
	// AND-pipeline where zero state maps to zero state.
	c := netlist.New("pipe")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate("g", netlist.OpAnd, a, b)
	l1 := c.AddLatch("l1", g)
	l2 := c.AddLatch("l2", l1)
	c.AddOutput("o", l2)
	res1, err := retime.MinPeriod(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckResetEquivalence(c, res1.Circuit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestBlowupUnderBudget(t *testing.T) {
	// 14-bit counters with a tiny node budget must blow up, the cliff
	// the paper's technique avoids.
	c := counterN(14)
	res, err := CheckResetEquivalence(c, c.Clone(), Options{MaxNodes: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Blowup || res.Inputs != nil {
		t.Fatalf("verdict = %v with %d input steps, want blowup and none", res.Verdict, len(res.Inputs))
	}
}

func TestEnabledLatchTraversal(t *testing.T) {
	mk := func() *netlist.Circuit {
		c := netlist.New("en")
		d := c.AddInput("d")
		e := c.AddInput("e")
		q := c.AddEnabledLatch("q", d, e)
		c.AddOutput("o", q)
		return c
	}
	res, err := CheckResetEquivalence(mk(), mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict = %v", res.Verdict)
	}
}

func TestTraceReproducesBug(t *testing.T) {
	// The deep-bug counter: the trace must drive both machines from
	// reset to a cycle where the outputs differ, confirmed by simulation.
	c1 := counterN(4)
	c2 := counterN(4)
	inv := c2.AddGate("inv", netlist.OpNot, c2.Outputs[0].Node)
	c2.Outputs[0].Node = inv
	res, err := CheckResetEquivalence(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Inputs) == 0 {
		t.Fatal("no trace returned")
	}
	if !replayDiffers(c1, c2, res.Inputs) {
		t.Fatalf("trace of %d cycles does not distinguish", len(res.Inputs))
	}
}

func TestTraceEquivalentHasNoInputs(t *testing.T) {
	c := counterN(3)
	res, err := CheckResetEquivalence(c, c.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent || res.Inputs != nil {
		t.Fatalf("res = %+v", res)
	}
}

func TestTraceDeepWrapAround(t *testing.T) {
	// A bug visible only after 2^(n-1) steps: the trace must be that
	// long (the counter wraps at step 8 for n=4... MSB OR-bug fires when
	// carry into the MSB coincides with MSB=1).
	c1 := counterN(4)
	c2 := netlist.New("cnt")
	en := c2.AddInput("en")
	var bits []int
	for i := 0; i < 4; i++ {
		bits = append(bits, c2.AddLatch("b"+string(rune('0'+i)), 0))
	}
	carry := en
	for i := 0; i < 4; i++ {
		var sum int
		if i == 3 {
			sum = c2.AddGate("", netlist.OpOr, bits[i], carry)
		} else {
			sum = c2.AddGate("", netlist.OpXor, bits[i], carry)
		}
		nc := c2.AddGate("", netlist.OpAnd, bits[i], carry)
		c2.SetLatchData(bits[i], sum)
		carry = nc
	}
	c2.AddOutput("msb", bits[3])
	res, err := CheckResetEquivalence(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inequivalent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if len(res.Inputs) < 10 {
		t.Fatalf("trace suspiciously short (%d cycles) for a wrap-around bug", len(res.Inputs))
	}
	if !replayDiffers(c1, c2, res.Inputs) {
		t.Fatalf("trace of %d cycles does not distinguish", len(res.Inputs))
	}
}

// replayDiffers simulates both circuits from the all-zero reset under
// seq, whose steps assign c1's inputs by name, and reports whether some
// output differs at the last cycle and none does before it.
func replayDiffers(c1, c2 *netlist.Circuit, seq []map[string]bool) bool {
	s1, s2 := sim.New(c1), sim.New(c2)
	st1 := make(sim.State, len(c1.Latches))
	st2 := make(sim.State, len(c2.Latches))
	in1 := make([]bool, len(c1.Inputs))
	in2 := make([]bool, len(c2.Inputs))
	for t, step := range seq {
		for i, id := range c1.Inputs {
			in1[i] = step[c1.Nodes[id].Name]
		}
		for i, id := range c2.Inputs {
			in2[i] = step[c2.Nodes[id].Name]
		}
		var o1, o2 []bool
		o1, st1 = s1.Step(in1, st1)
		o2, st2 = s2.Step(in2, st2)
		if !slices.Equal(o1, o2) {
			return t == len(seq)-1
		}
	}
	return false
}

func TestCombinationalCycleIsError(t *testing.T) {
	c := netlist.New("cyc")
	a := c.AddInput("a")
	g1 := c.AddGate("g1", netlist.OpAnd, a, a) // fanin patched below
	g2 := c.AddGate("g2", netlist.OpOr, g1, a)
	c.Nodes[g1].Fanins[1] = g2
	c.AddOutput("o", g2)
	res, err := CheckResetEquivalence(c, c.Clone(), Options{})
	if err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("cyclic circuit: got %v, %v; want a cycle error", res, err)
	}
	if res != nil {
		t.Fatalf("cyclic circuit: got a result %+v alongside %v", res, err)
	}
}

func TestInputsMatchedByName(t *testing.T) {
	// c1 has inputs (a, b) computing a∧¬b; c2 has inputs (x, a)
	// computing a∧¬x. Pairing by position would give x a's variable.
	mk := func(names [2]string, pos, neg string) *netlist.Circuit {
		c := netlist.New("m")
		ids := map[string]int{}
		for _, n := range names {
			ids[n] = c.AddInput(n)
		}
		nb := c.AddGate("nb", netlist.OpNot, ids[neg])
		c.AddOutput("o", c.AddGate("g", netlist.OpAnd, ids[pos], nb))
		return c
	}
	c1 := mk([2]string{"a", "b"}, "a", "b")
	c2 := mk([2]string{"x", "a"}, "a", "x")
	_, err := CheckResetEquivalence(c1, c2, Options{})
	if err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Fatalf("err = %v, want one naming the unmatched input x", err)
	}

	// Same names in another order are matched, not paired by position.
	c3 := mk([2]string{"b", "a"}, "a", "b")
	res, err := CheckResetEquivalence(c1, c3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("reordered inputs: verdict %v", res.Verdict)
	}
}
