package core_test

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"seqver/internal/bench"
	"seqver/internal/core"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// reparse round-trips c through BLIF, as perfbench hands its pairs to
// the verifier.
func reparse(t testing.TB, c *netlist.Circuit) *netlist.Circuit {
	t.Helper()
	var b bytes.Buffer
	if err := netlist.WriteBLIF(&b, c); err != nil {
		t.Fatal(err)
	}
	d, err := netlist.ParseBLIFString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// ex5Pair is perfbench's industrial_ex5 pair i: the ex5-shaped circuit
// against its synthesized version.
func ex5Pair(t testing.TB, i int) (*netlist.Circuit, *netlist.Circuit) {
	t.Helper()
	a := bench.GenerateIndustrial(bench.IndustrialSpec{Name: fmt.Sprintf("ex5-%d", i),
		Latches: 672, FSMFrac: 305.0 / 672, MemFrac: 0.15})
	syn, err := synth.Optimize(a, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	return a, syn
}

// s3384Pair is perfbench's retimed pair i (daemon_repeat submits it
// through UnrollPairCtx): the prepared s3384-shaped circuit against its
// synthesized, min-period-retimed version.
func s3384Pair(t testing.TB, i int) (*netlist.Circuit, *netlist.Circuit) {
	t.Helper()
	prep, err := core.Prepare(bench.Generate(bench.Spec{Name: fmt.Sprintf("s3384-%d", i),
		Latches: 183, FeedbackFrac: 0.39}), core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := retime.MinPeriod(syn)
	if err != nil {
		t.Fatal(err)
	}
	return prep.Circuit, rt.Circuit
}

// routeCounts runs f under a tracer and returns the count events it
// emitted for the front end's cost drivers, in order.
func routeCounts(t *testing.T, f func(ctx context.Context) (*core.Unrolled, error)) (*core.Unrolled, []string) {
	t.Helper()
	ring := obs.NewRingSink(4096)
	u, err := f(obs.WithTracer(context.Background(), obs.New(ring)))
	if err != nil {
		t.Fatal(err)
	}
	var counts []string
	for _, ev := range ring.Events() {
		if ev.Type == obs.EvCount && (strings.HasPrefix(ev.Name, "cbf.") ||
			strings.HasPrefix(ev.Name, "edbf.") || strings.HasPrefix(ev.Name, "feedback.") ||
			ev.Name == "aig.inputs") {
			counts = append(counts, fmt.Sprintf("%s=%d", ev.Name, ev.Value))
		}
	}
	return u, counts
}

// sameUnrolled fails unless the cut route's reduction is the copy
// route's in every respect.
func sameUnrolled(t *testing.T, got, want *core.Unrolled) {
	t.Helper()
	sameAIG(t, got.Miter().AIG(), want.Miter().AIG())
	if g, w := got.MiterHash(), want.MiterHash(); g != w {
		t.Fatalf("hash %s, copy route %s", g, w)
	}
	if got.Method != want.Method || got.Depth != want.Depth ||
		got.Conservative != want.Conservative || got.UnrolledGates != want.UnrolledGates {
		t.Fatalf("cut route %s depth %d conservative %v gates %v; copy route %s depth %d conservative %v gates %v",
			got.Method, got.Depth, got.Conservative, got.UnrolledGates,
			want.Method, want.Depth, want.Conservative, want.UnrolledGates)
	}
}

// TestCutRouteMatchesCopyRoute checks, on perfbench's corpus shapes,
// that UnrollPairCtx, which reads both circuits through their cuts,
// reduces each pair exactly as unrolling the circuits those cuts build
// (PrepareCtx and MatchExposure) does: the same joint AIG node for
// node, input names and order, output edges and hash, the same method,
// depth and unrolled gate counts, and the same cbf.*, edbf.*,
// feedback.* and aig.inputs counts in the same order.
func TestCutRouteMatchesCopyRoute(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 2
	}
	for i := 0; i < n; i++ {
		for _, shape := range []string{"ex5", "s3384"} {
			var c1, c2 *netlist.Circuit
			if shape == "ex5" {
				c1, c2 = ex5Pair(t, i)
			} else {
				c1, c2 = s3384Pair(t, i)
			}
			c1, c2 = reparse(t, c1), reparse(t, c2)
			got, gotCounts := routeCounts(t, func(ctx context.Context) (*core.Unrolled, error) {
				return core.UnrollPairCtx(ctx, c1, c2, core.PrepareOptions{}, false)
			})
			want, wantCounts := routeCounts(t, func(ctx context.Context) (*core.Unrolled, error) {
				p, err := core.PrepareCtx(ctx, c1, core.PrepareOptions{})
				if err != nil {
					return nil, err
				}
				b2, err := core.MatchExposure(c2, p.Exposed)
				if err != nil {
					return nil, err
				}
				return core.UnrollAcyclicCtx(ctx, p.Circuit, b2, false)
			})
			sameUnrolled(t, got, want)
			if !slices.Equal(gotCounts, wantCounts) {
				t.Fatalf("%s-%d: counts %v, copy route %v", shape, i, gotCounts, wantCounts)
			}
			if i == 1 && shape == "ex5" && !slices.Contains(gotCounts, "feedback.exposed=306") {
				t.Fatalf("ex5-1: counts %v, want feedback.exposed=306", gotCounts)
			}
		}
	}
}
