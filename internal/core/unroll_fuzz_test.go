package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"seqver/internal/aig"
	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// FuzzUnrollMiter checks that the joint AIG UnrollAcyclicCtx builds
// straight from the CBF or EDBF walks is, node for node, the miter
// cec.NewMiterCtx builds over the named netlist unrollings: the same
// input names in the same order, the same fanins on every AND node and
// the same output edges, hence the same hash, with the netlists' gate
// counts and, on the CBF path, the sequential depth. The bytes pick a small
// generated pair: a bench.Spec circuit against its synthesized (and
// optionally retimed) version on the CBF path, or a
// bench.IndustrialSpec circuit against its synthesized version,
// prepared and exposure-matched, on the EDBF path.
func FuzzUnrollMiter(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint8(30), uint8(2), false)
	f.Add(uint8(0), uint16(2), uint8(24), uint8(4), true)
	f.Add(uint8(0), uint16(3), uint8(60), uint8(0), true)
	f.Add(uint8(1), uint16(4), uint8(40), uint8(3), false)
	f.Add(uint8(1), uint16(5), uint8(90), uint8(1), false)
	f.Add(uint8(1), uint16(6), uint8(20), uint8(5), true)
	f.Fuzz(func(t *testing.T, kind uint8, seed uint16, latches, frac uint8, rt bool) {
		name := fmt.Sprintf("fz%d", seed)
		var c1, c2 *netlist.Circuit
		var err error
		if kind%2 == 0 {
			c1, c2, err = cbfPair(bench.Spec{Name: name, Latches: 4 + int(latches)%60,
				FeedbackFrac: float64(frac%6) / 10}, rt)
		} else {
			c1, c2, err = edbfPair(bench.IndustrialSpec{Name: name, Latches: 8 + int(latches)%90,
				FSMFrac: float64(frac%6) / 10, MemFrac: 0.15})
		}
		if err != nil {
			t.Skip(err) // the generator made a pair the flow does not take
		}
		ctx := context.Background()
		u, err := core.UnrollAcyclicCtx(ctx, c1, c2, false)
		if err != nil {
			t.Fatal(err)
		}
		var h1, h2 *netlist.Circuit
		if u.Method == "cbf" {
			if h1, err = cbf.Unroll(c1); err == nil {
				h2, err = cbf.Unroll(c2)
			}
		} else {
			cx := edbf.NewCtx()
			if h1, err = cx.Unroll(c1); err == nil {
				h2, err = cx.Unroll(c2)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := cec.NewMiterCtx(ctx, h1, h2)
		if err != nil {
			t.Fatal(err)
		}
		sameAIG(t, u.Miter().AIG(), want.AIG())
		if got, w := u.MiterHash(), want.Hash(); got != w {
			t.Fatalf("hash %s, netlist route %s", got, w)
		}
		if u.Method == "cbf" {
			if d, err := cbf.SequentialDepth(c1); err != nil || u.Depth != d {
				t.Fatalf("Depth = %d, SequentialDepth = %d (%v)", u.Depth, d, err)
			}
		}
		if u.UnrolledGates != [2]int{h1.NumGates(), h2.NumGates()} {
			t.Fatalf("UnrolledGates = %v, netlists have %d and %d gates",
				u.UnrolledGates, h1.NumGates(), h2.NumGates())
		}
	})
}

// cbfPair prepares a generated circuit and pairs it with its
// synthesized, optionally min-period-retimed version.
func cbfPair(sp bench.Spec, rt bool) (*netlist.Circuit, *netlist.Circuit, error) {
	prep, err := core.Prepare(bench.Generate(sp), core.PrepareOptions{})
	if err != nil {
		return nil, nil, err
	}
	c2, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		return nil, nil, err
	}
	if rt {
		r, err := retime.MinPeriod(c2)
		if err != nil {
			return nil, nil, err
		}
		c2 = r.Circuit
	}
	return prep.Circuit, c2, nil
}

// edbfPair prepares a generated load-enabled circuit and mirrors its
// exposure onto the circuit's synthesized version, as VerifyCtx does.
func edbfPair(sp bench.IndustrialSpec) (*netlist.Circuit, *netlist.Circuit, error) {
	a := bench.GenerateIndustrial(sp)
	syn, err := synth.Optimize(a, synth.DefaultScript())
	if err != nil {
		return nil, nil, err
	}
	prep, err := core.PrepareCtx(context.Background(), a, core.PrepareOptions{})
	if err != nil {
		return nil, nil, err
	}
	b2, err := core.MatchExposure(syn, prep.Exposed)
	if err != nil {
		return nil, nil, err
	}
	return prep.Circuit, b2, nil
}

// sameAIG fails unless got and want are the same AIG node for node.
func sameAIG(t *testing.T, got, want *aig.AIG) {
	t.Helper()
	if got.NumPIs() != want.NumPIs() || got.NumNodes() != want.NumNodes() || got.NumPOs() != want.NumPOs() {
		t.Fatalf("shape: %d inputs, %d nodes, %d outputs; netlist route %d, %d, %d",
			got.NumPIs(), got.NumNodes(), got.NumPOs(), want.NumPIs(), want.NumNodes(), want.NumPOs())
	}
	for i := 0; i < got.NumPIs(); i++ {
		if g, w := got.PIName(i), want.PIName(i); g != w {
			t.Fatalf("input %d is %q, netlist route %q", i, g, w)
		}
	}
	for n := uint32(got.NumPIs() + 1); n < uint32(got.NumNodes()); n++ {
		g0, g1 := got.Fanins(n)
		w0, w1 := want.Fanins(n)
		if g0 != w0 || g1 != w1 {
			t.Fatalf("AND %d has fanins %d,%d, netlist route %d,%d", n, g0, g1, w0, w1)
		}
	}
	for i := 0; i < got.NumPOs(); i++ {
		if got.POName(i) != want.POName(i) || got.PO(i) != want.PO(i) {
			t.Fatalf("output %d is %q=%d, netlist route %q=%d",
				i, got.POName(i), got.PO(i), want.POName(i), want.PO(i))
		}
	}
}

// TestUnrollMiterUndefInputs covers what the generated pairs never
// produce: latches whose enable is constant false, named and unnamed,
// whose values become "undef:" free variables ordered after the timed
// inputs. The direct miter must still equal the netlist route's.
func TestUnrollMiterUndefInputs(t *testing.T) {
	build := func(op netlist.Op) *netlist.Circuit {
		c := netlist.New("undef")
		a := c.AddInput("a")
		b := c.AddInput("b")
		le := c.AddInput("le")
		zero := c.AddGate("zero", netlist.OpConst0)
		q := c.AddEnabledLatch("q", a, zero)
		r := c.AddEnabledLatch("", b, zero)
		p := c.AddEnabledLatch("p", b, le)
		g := c.AddGate("", op, q, p, r)
		c.AddOutput("o", c.AddGate("g", netlist.OpXor, g, a))
		return c
	}
	ctx := context.Background()
	for _, op := range []netlist.Op{netlist.OpAnd, netlist.OpOr} {
		c1, c2 := build(netlist.OpAnd), build(op)
		u, err := core.UnrollAcyclicCtx(ctx, c1, c2, false)
		if err != nil {
			t.Fatal(err)
		}
		cx := edbf.NewCtx()
		h1, err := cx.Unroll(c1)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := cx.Unroll(c2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cec.NewMiterCtx(ctx, h1, h2)
		if err != nil {
			t.Fatal(err)
		}
		got := u.Miter().AIG()
		sameAIG(t, got, want.AIG())
		names := got.PINames()
		if n := len(names); n < 2 || !strings.HasPrefix(names[n-2], "undef:q#") ||
			!strings.HasPrefix(names[n-1], "undef:n") {
			t.Fatalf("inputs %v: want undef:q#… and undef:n<id>#… last, in creation order", names)
		}
	}
}
