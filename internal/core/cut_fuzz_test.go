package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"seqver"
	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/feedback"
	"seqver/internal/netlist"
	"seqver/internal/unroll"
)

// FuzzCutUnroll checks that reading a circuit through a cut is reading
// the circuit the cut builds: for a random subset of a generated
// circuit's named latches (with or without a feedback vertex set in
// it), in random order, feedback.NewCut must report the gate count,
// regularity, input and output names and acyclicity verdict (error
// text included) of its Circuit, which must pass Check, and the CBF
// and EDBF walks over the cut must record the very unrollings
// cbf.Unroll and edbf's Unroll build from that circuit, byte for byte,
// with the same events. Each circuit also carries a dead gate (Sweep
// drops it and renumbers what follows) and a dead latch with its own
// cone (Sweep keeps it); kind&2 adds an unnamed latch that never
// loads, read by an output, whose "undef:n<id>" name carries the swept
// ID. kind&8 instead names a node after the next-state signal of one
// feedback latch ("<latch>$ns", or "<latch>$nsmux" for a load-enabled
// one): NewCut, core.PrepareCtx and seqver.ExposeLatches must then
// fail with one error naming the clash.
func FuzzCutUnroll(f *testing.F) {
	f.Add(uint8(0), uint16(1), uint8(12), uint8(1), false)
	f.Add(uint8(0), uint16(2), uint8(30), uint8(5), true)
	f.Add(uint8(2), uint16(3), uint8(20), uint8(3), false)
	f.Add(uint8(0), uint16(7), uint8(9), uint8(0), false)
	f.Add(uint8(3), uint16(4), uint8(24), uint8(3), false)
	f.Add(uint8(5), uint16(5), uint8(40), uint8(1), true)
	f.Add(uint8(1), uint16(6), uint8(16), uint8(2), false)
	f.Add(uint8(7), uint16(8), uint8(50), uint8(7), true)
	f.Add(uint8(8), uint16(2), uint8(30), uint8(5), false)
	f.Add(uint8(9), uint16(3), uint8(20), uint8(3), false)
	f.Fuzz(func(t *testing.T, kind uint8, seed uint16, latches, frac uint8, rewrite bool) {
		name := fmt.Sprintf("cz%d", seed)
		var c *netlist.Circuit
		if kind%2 == 0 {
			c = bench.Generate(bench.Spec{Name: name, Latches: 4 + int(latches)%40,
				FeedbackFrac: float64(seed%6) / 10})
		} else {
			c = bench.GenerateIndustrial(bench.IndustrialSpec{Name: name, Latches: 8 + int(latches)%60,
				FSMFrac: float64(seed%6) / 10, MemFrac: 0.15})
		}
		addDead(c, kind&2 != 0)
		// Odd frac cuts a feedback vertex set plus random latches, so
		// the walks run; even frac cuts random latches alone, which
		// mostly leaves a cycle. kind&4 also cuts every load-enabled
		// latch, so a load-enabled circuit takes the CBF walk.
		var ids []int
		if frac%2 == 1 {
			sel, err := feedback.Select(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids = sel
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		for _, id := range c.Latches {
			n := c.Nodes[id]
			if n.Name == "" || slices.Contains(ids, id) {
				continue
			}
			if rng.Intn(8) < int(frac%8) || (kind&4 != 0 && n.Enable != netlist.NoEnable) {
				ids = append(ids, id)
			}
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if kind&8 != 0 {
			sameClashError(t, c, ids, int(seed))
			return
		}

		x, err := feedback.NewCut(c, ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := x.Circuit()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Check(); err != nil {
			t.Fatalf("the cut's circuit: %v", err)
		}
		if x.NumGates() != b.NumGates() || x.IsRegular() != b.IsRegular() {
			t.Fatalf("cut: %d gates, regular %v; its circuit: %d gates, regular %v",
				x.NumGates(), x.IsRegular(), b.NumGates(), b.IsRegular())
		}
		var ins []string
		for _, id := range x.Inputs {
			ins = append(ins, x.Node(id).Name)
		}
		if !slices.Equal(ins, b.InputNames()) || !slices.Equal(x.OutputNames(), b.OutputNames()) {
			t.Fatalf("cut ports %v -> %v; its circuit %v -> %v", ins, x.OutputNames(), b.InputNames(), b.OutputNames())
		}
		if got, want := errText(cbf.CheckCut(x)), errText(cbf.CheckAcyclic(b)); got != want {
			t.Fatalf("acyclicity: cut %q, its circuit %q", got, want)
		}
		ctx := context.Background()
		if x.IsRegular() {
			r, err := cbf.RecordCtx(ctx, x)
			want, werr := cbf.Unroll(b)
			sameUnrolling(t, "cbf", r, err, want, werr, c.Name+"_cbf")
		}
		cx1, cx2 := edbf.NewCtx(), edbf.NewCtx()
		cx1.Rewrite, cx2.Rewrite = rewrite, rewrite
		r, err := cx1.RecordCtx(ctx, x)
		want, werr := cx2.Unroll(b)
		sameUnrolling(t, "edbf", r, err, want, werr, c.Name+"_edbf")
		if cx1.NumEvents() != cx2.NumEvents() {
			t.Fatalf("edbf: cut interned %d events, its circuit %d", cx1.NumEvents(), cx2.NumEvents())
		}
	})
}

// addDead adds to c a gate nothing reads, then a latch nothing reads
// over a cone of its own, and with undef an unnamed latch whose enable
// is constant false, XORed into a new output.
func addDead(c *netlist.Circuit, undef bool) {
	a := c.Inputs[0]
	c.AddGate("dead$g", netlist.OpNot, a)
	c.AddLatch("dead$l", c.AddGate("dead$lg", netlist.OpAnd, a, c.Inputs[len(c.Inputs)-1]))
	if undef {
		u := c.AddEnabledLatch("", a, c.AddGate("undef$en", netlist.OpConst0))
		c.AddOutput("undef$o", c.AddGate("undef$x", netlist.OpXor, u, c.Outputs[0].Node))
	}
}

// sameClashError names a dead gate after the next-state signal of one
// of c's feedback latches, adds that latch to ids if missing, and
// fails unless exposing ids through a cut or through
// seqver.ExposeLatches, and preparing c, all fail with one error that
// names the clash.
func sameClashError(t *testing.T, c *netlist.Circuit, ids []int, pick int) {
	t.Helper()
	sel, err := feedback.Select(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Skip("no feedback latch to clash with")
	}
	l := sel[pick%len(sel)]
	clash := c.Nodes[l].Name + "$ns"
	if c.Nodes[l].Enable != netlist.NoEnable {
		clash += "mux"
	}
	c.AddGate(clash, netlist.OpNot, c.Inputs[0])
	if !slices.Contains(ids, l) {
		ids = append(ids, l)
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = c.Nodes[id].Name
	}
	_, err = feedback.NewCut(c, ids)
	want := errText(err)
	if !strings.Contains(want, strconv.Quote(clash)) {
		t.Fatalf("NewCut: %q, want an error naming %q", want, clash)
	}
	_, err = core.PrepareCtx(context.Background(), c, core.PrepareOptions{})
	if got := errText(err); got != want {
		t.Fatalf("PrepareCtx: %q, NewCut %q", got, want)
	}
	_, err = seqver.ExposeLatches(c, names)
	if got := errText(err); got != want {
		t.Fatalf("ExposeLatches: %q, NewCut %q", got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameUnrolling fails unless the record r of the cut route, emitted as
// a netlist called name, is byte for byte the copy route's unrolling,
// or both routes fail with the same error.
func sameUnrolling(t *testing.T, method string, r *unroll.Record, err error, want *netlist.Circuit, werr error, name string) {
	t.Helper()
	if errText(err) != errText(werr) {
		t.Fatalf("%s: cut route error %q, copy route %q", method, errText(err), errText(werr))
	}
	if err != nil {
		return
	}
	got, err := r.Circuit(name)
	if err != nil {
		t.Fatal(err)
	}
	var gb, wb bytes.Buffer
	if err := netlist.WriteBLIF(&gb, got); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteBLIF(&wb, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: the cut route's unrolling differs from the copy route's:\n%s\n---\n%s", method, gb.Bytes(), wb.Bytes())
	}
}
