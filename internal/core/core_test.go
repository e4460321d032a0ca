package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// mixedCircuit has a unate self-loop latch (hold register), a binate
// self-loop (toggle), and an acyclic pipeline latch.
func mixedCircuit() *netlist.Circuit {
	c := netlist.New("mix")
	d := c.AddInput("d")
	en := c.AddInput("en")
	// Hold register: positive unate self-loop.
	hold := c.AddLatch("hold", 0)
	ld := c.AddGate("ld", netlist.OpAnd, en, d)
	nen := c.AddGate("nen", netlist.OpNot, en)
	hd := c.AddGate("hd", netlist.OpAnd, nen, hold)
	c.SetLatchData(hold, c.AddGate("hn", netlist.OpOr, ld, hd))
	// Toggle: binate self-loop.
	tog := c.AddLatch("tog", 0)
	c.SetLatchData(tog, c.AddGate("tn", netlist.OpXor, tog, en))
	// Pipeline latch: no feedback.
	pipe := c.AddLatch("pipe", d)
	o := c.AddGate("o", netlist.OpXor, c.AddGate("hp", netlist.OpAnd, hold, pipe), tog)
	c.AddOutput("o", o)
	return c
}

func TestPrepareStructural(t *testing.T) {
	c := mixedCircuit()
	res, err := Prepare(c, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Structural mode must expose both self-loop latches.
	if len(res.Exposed) != 2 {
		t.Fatalf("exposed = %v, want both self-loops", res.Exposed)
	}
	if err := cbf.CheckAcyclic(res.Circuit); err != nil {
		t.Fatal(err)
	}
	if res.TotalLatches != 3 {
		t.Fatalf("total = %d", res.TotalLatches)
	}
}

func TestPrepareUnateAware(t *testing.T) {
	c := mixedCircuit()
	res, err := Prepare(c, PrepareOptions{UnateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	// The hold register is re-modeled, only the toggle is exposed.
	if len(res.Modeled) != 1 || res.Modeled[0] != "hold" {
		t.Fatalf("modeled = %v", res.Modeled)
	}
	if len(res.Exposed) != 1 || res.Exposed[0] != "tog" {
		t.Fatalf("exposed = %v", res.Exposed)
	}
	if err := cbf.CheckAcyclic(res.Circuit); err != nil {
		t.Fatal(err)
	}
}

func TestPrepareProtected(t *testing.T) {
	// Cross-coupled pair: protecting one forces the other.
	c := netlist.New("cr")
	a := c.AddInput("a")
	l1 := c.AddLatch("l1", 0)
	l2 := c.AddLatch("l2", 0)
	c.SetLatchData(l1, c.AddGate("g1", netlist.OpAnd, l2, a))
	c.SetLatchData(l2, c.AddGate("g2", netlist.OpOr, l1, a))
	c.AddOutput("o", l1)
	res, err := Prepare(c, PrepareOptions{Protected: map[string]bool{"l1": true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Exposed) != 1 || res.Exposed[0] != "l2" {
		t.Fatalf("exposed = %v", res.Exposed)
	}
}

// pipeline circuit for positive verification through the full optimize
// loop.
func pipeCircuit() *netlist.Circuit {
	c := netlist.New("pl")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddGate("x", netlist.OpXor, a, b)
	y := c.AddGate("y", netlist.OpNand, x, a)
	l1 := c.AddLatch("l1", y)
	z := c.AddGate("z", netlist.OpNot, l1)
	l2 := c.AddLatch("l2", z)
	c.AddOutput("o", l2)
	return c
}

func TestVerifyAcyclicAfterRetimeAndSynth(t *testing.T) {
	orig := pipeCircuit()
	rt, err := retime.MinPeriod(orig)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := synth.Optimize(rt.Circuit, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	// The AIG decomposition counts inverters as unit-delay gates, so the
	// pre-synthesis period can be infeasible; re-derive the bound.
	p2, err := retime.MinPossiblePeriod(opt)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := retime.ConstrainedMinArea(opt, p2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyAcyclic(orig, rt2.Circuit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "cbf" || rep.Conservative {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.Result.Verdict != cec.Equivalent {
		t.Fatalf("verdict = %v (output %s)", rep.Result.Verdict, rep.Result.FailingOutput)
	}
	if rep.Depth < 1 {
		t.Fatalf("depth = %d", rep.Depth)
	}
}

func TestVerifyAcyclicDetectsBug(t *testing.T) {
	orig := pipeCircuit()
	bug := pipeCircuit()
	// Change the NAND to an AND: a real bug.
	bug.Nodes[bug.MustLookup("y")].Op = netlist.OpAnd
	rep, err := VerifyAcyclic(orig, bug, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict != cec.Inequivalent {
		t.Fatalf("verdict = %v", rep.Result.Verdict)
	}
	if len(rep.Result.Counterexample) == 0 {
		t.Fatal("no counterexample")
	}
}

func TestVerifyCyclicCombOnly(t *testing.T) {
	// A cyclic circuit optimized combinationally (latches fixed):
	// Verify exposes the same latches on both sides and proves
	// equivalence.
	c := mixedCircuit()
	opt, err := synth.Optimize(c, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(c, opt, PrepareOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict != cec.Equivalent {
		t.Fatalf("verdict = %v (output %s)", rep.Result.Verdict, rep.Result.FailingOutput)
	}
}

func TestVerifyCyclicDetectsBug(t *testing.T) {
	c := mixedCircuit()
	bug := mixedCircuit()
	bug.Nodes[bug.MustLookup("hp")].Op = netlist.OpOr
	rep, err := Verify(c, bug, PrepareOptions{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict != cec.Inequivalent {
		t.Fatalf("verdict = %v", rep.Result.Verdict)
	}
}

func TestVerifyMissingLatchName(t *testing.T) {
	c := mixedCircuit()
	other := netlist.New("other")
	a := other.AddInput("d")
	other.AddInput("en")
	l := other.AddLatch("nomatch", a)
	other.AddOutput("o", l)
	if _, err := Verify(c, other, PrepareOptions{}, Options{}); err == nil {
		t.Fatal("expected missing-latch error")
	}
}

func TestVerifyEnabledLatchesEDBF(t *testing.T) {
	mk := func() *netlist.Circuit {
		c := netlist.New("en")
		d := c.AddInput("d")
		e := c.AddInput("e")
		q := c.AddEnabledLatch("q", d, e)
		q2 := c.AddLatch("q2", q)
		c.AddOutput("o", q2)
		return c
	}
	rep, err := VerifyAcyclic(mk(), mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "edbf" || !rep.Conservative {
		t.Fatalf("rep = %+v", rep)
	}
	if rep.Result.Verdict != cec.Equivalent {
		t.Fatalf("verdict = %v", rep.Result.Verdict)
	}
}

func TestVerifyUnateAwarePipelineEndToEnd(t *testing.T) {
	// Prepare in unate-aware mode, optimize combinationally, verify via
	// the EDBF path (the modeled latch is load-enabled now).
	c := mixedCircuit()
	p, err := Prepare(c, PrepareOptions{UnateAware: true})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := synth.Optimize(p.Circuit, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyAcyclic(p.Circuit, opt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "edbf" {
		t.Fatalf("method = %s", rep.Method)
	}
	if rep.Result.Verdict != cec.Equivalent {
		t.Fatalf("verdict = %v (output %s)", rep.Result.Verdict, rep.Result.FailingOutput)
	}
}

func TestRandomEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	for trial := 0; trial < 10; trial++ {
		c := randomCyclic(rng)
		p, err := Prepare(c, PrepareOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rt, err := retime.MinPeriod(p.Circuit)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := synth.Optimize(rt.Circuit, synth.DefaultScript())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rep, err := VerifyAcyclic(p.Circuit, opt, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rep.Result.Verdict != cec.Equivalent {
			t.Fatalf("trial %d: verdict %v (output %s)\nB:\n%s\nC:\n%s",
				trial, rep.Result.Verdict, rep.Result.FailingOutput, p.Circuit, opt)
		}
	}
}

func randomCyclic(rng *rand.Rand) *netlist.Circuit {
	c := netlist.New("rnd")
	var pool []int
	for i := 0; i < 3; i++ {
		pool = append(pool, c.AddInput(string(rune('a'+i))))
	}
	nl := 2 + rng.Intn(3)
	var latches []int
	for i := 0; i < nl; i++ {
		l := c.AddLatch("L"+string(rune('0'+i)), 0)
		latches = append(latches, l)
		pool = append(pool, l)
	}
	ops := []netlist.Op{netlist.OpAnd, netlist.OpOr, netlist.OpXor, netlist.OpNand, netlist.OpNot}
	for g := 0; g < 10+rng.Intn(10); g++ {
		op := ops[rng.Intn(len(ops))]
		var id int
		if op == netlist.OpNot {
			id = c.AddGate("", op, pool[rng.Intn(len(pool))])
		} else {
			id = c.AddGate("", op, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))])
		}
		pool = append(pool, id)
	}
	for _, l := range latches {
		c.SetLatchData(l, pool[len(pool)-1-rng.Intn(4)])
	}
	c.AddOutput("o", pool[len(pool)-1])
	return c
}

func TestVerifyEnabledAfterRetiming(t *testing.T) {
	// Theorem 5.2's sound use case end to end: a single-class enabled
	// circuit is retimed (Fig. 16 moves) and verified via EDBF.
	c := netlist.New("enrt")
	a := c.AddInput("a")
	b := c.AddInput("b")
	le := c.AddInput("le")
	la := c.AddEnabledLatch("la", a, le)
	lb := c.AddEnabledLatch("lb", b, le)
	g := c.AddGate("g", netlist.OpAnd, la, lb)
	g2 := c.AddGate("g2", netlist.OpXor, g, a)
	c.AddOutput("o", g2)

	rt, err := retime.ConstrainedMinArea(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Latches >= 2 {
		t.Fatalf("expected forward merge, got %d latches", rt.Latches)
	}
	rep, err := VerifyAcyclic(c, rt.Circuit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Method != "edbf" {
		t.Fatalf("method %s", rep.Method)
	}
	if rep.Result.Verdict != cec.Equivalent {
		t.Fatalf("verdict %v (output %s)", rep.Result.Verdict, rep.Result.FailingOutput)
	}
}

func TestVerifyEnabledRetimingBugCaught(t *testing.T) {
	// Same setup, but the "optimized" circuit wires the wrong data: the
	// EDBF check must flag it.
	mk := func(bug bool) *netlist.Circuit {
		c := netlist.New("enb")
		a := c.AddInput("a")
		b := c.AddInput("b")
		le := c.AddInput("le")
		src := b
		if bug {
			src = c.AddGate("nb", netlist.OpNot, b)
		}
		la := c.AddEnabledLatch("la", a, le)
		lb := c.AddEnabledLatch("lb", src, le)
		g := c.AddGate("g", netlist.OpAnd, la, lb)
		c.AddOutput("o", g)
		return c
	}
	rep, err := VerifyAcyclic(mk(false), mk(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict != cec.Inequivalent {
		t.Fatalf("verdict %v", rep.Result.Verdict)
	}
	if !rep.Conservative {
		t.Fatal("EDBF verdicts must be flagged conservative")
	}
}

func TestVerifyMultiClassRetimedEDBF(t *testing.T) {
	// Multi-class retiming output verified through the EDBF path: the
	// full extension story (beyond the paper's own tooling) closed loop.
	c := netlist.New("mcrt")
	a := c.AddInput("a")
	b := c.AddInput("b")
	le := c.AddInput("le")
	g1 := c.AddGate("g1", netlist.OpXor, a, b)
	g2 := c.AddGate("g2", netlist.OpNand, g1, a)
	g3 := c.AddGate("g3", netlist.OpNot, g2)
	l1 := c.AddLatch("l1", g3)
	l2 := c.AddLatch("l2", l1)
	e1 := c.AddEnabledLatch("e1", a, le)
	o := c.AddGate("o", netlist.OpXor, l2, e1)
	c.AddOutput("o", o)

	rt, err := retime.MinPeriodMulti(c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyAcyclic(c, rt.Circuit, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Verdict != cec.Equivalent {
		t.Fatalf("verdict %v (method %s, output %s)",
			rep.Result.Verdict, rep.Method, rep.Result.FailingOutput)
	}
}

// TestUnrolledHashesAndChecksOneMiter: the joint AIG UnrollAcyclicCtx
// builds straight from the two walks hashes as cec.MiterHash of the
// netlist route (cbf.Unroll of each side), and the check on it gives
// the verdict a check of those netlists gives.
func TestUnrolledHashesAndChecksOneMiter(t *testing.T) {
	orig := pipeCircuit()
	bug := pipeCircuit()
	bug.Nodes[bug.MustLookup("y")].Op = netlist.OpAnd
	ctx := context.Background()
	for _, c2 := range []*netlist.Circuit{pipeCircuit(), bug} {
		u, err := UnrollAcyclicCtx(ctx, orig, c2, false)
		if err != nil {
			t.Fatal(err)
		}
		h1, err := cbf.Unroll(orig)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := cbf.Unroll(c2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cec.MiterHash(h1, h2)
		if err != nil {
			t.Fatal(err)
		}
		if got := u.MiterHash(); got != want {
			t.Fatalf("Unrolled.MiterHash = %s, cec.MiterHash of the netlists = %s", got, want)
		}
		if u.UnrolledGates != [2]int{h1.NumGates(), h2.NumGates()} {
			t.Fatalf("UnrolledGates = %v, netlists have %d and %d", u.UnrolledGates, h1.NumGates(), h2.NumGates())
		}
		res, err := u.CheckCtx(ctx, cec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cec.Check(h1, h2, cec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != fresh.Verdict || res.FailingOutput != fresh.FailingOutput {
			t.Fatalf("check on the joint AIG: %v %q, netlist check: %v %q",
				res.Verdict, res.FailingOutput, fresh.Verdict, fresh.FailingOutput)
		}
	}
}

// TestVerifyCtxExposureErrors pins the two errors of mirroring the
// first circuit's exposure onto the second, on the verify path and the
// daemon's: a latch name the second circuit lacks, and a feedback path
// the mirrored exposure leaves in the second circuit. The texts are
// the ones MatchExposure gives on the materialized route.
func TestVerifyCtxExposureErrors(t *testing.T) {
	c := mixedCircuit() // exposes its self-loops "hold" and "tog"
	renamed, err := netlist.ParseBLIFString(strings.ReplaceAll(c.String(), "tog", "toggle"))
	if err != nil {
		t.Fatal(err)
	}

	// cyclic has mixedCircuit's self-loops and, where mixedCircuit's
	// pipeline latch is, a two-latch cycle that no self-loop breaks.
	cyclic := mixedCircuit()
	p := cyclic.MustLookup("pipe")
	q := cyclic.AddLatch("q", p)
	cyclic.SetLatchData(p, cyclic.AddGate("pq", netlist.OpXor, q, cyclic.MustLookup("d")))

	prep, err := Prepare(c, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Exposed) != 2 {
		t.Fatalf("exposed %v, want hold and tog", prep.Exposed)
	}
	for _, tc := range []struct {
		c2   *netlist.Circuit
		want string
	}{
		{renamed, `core: latch "tog" exposed in first circuit is missing in second`},
		{cyclic, `core: second circuit still cyclic after matching exposure: cbf: feedback path through "`},
	} {
		_, merr := MatchExposure(tc.c2, prep.Exposed)
		if merr == nil || !strings.HasPrefix(merr.Error(), tc.want) {
			t.Fatalf("MatchExposure: %v, want %s…", merr, tc.want)
		}
		if _, err := VerifyCtx(context.Background(), c, tc.c2, PrepareOptions{}, Options{}); err == nil || err.Error() != merr.Error() {
			t.Errorf("VerifyCtx: %v, want %q", err, merr)
		}
		if _, err := UnrollPairCtx(context.Background(), c, tc.c2, PrepareOptions{}, false); err == nil || err.Error() != merr.Error() {
			t.Errorf("UnrollPairCtx: %v, want %q", err, merr)
		}
	}
}
