package core_test

import (
	"context"
	"testing"

	"seqver/internal/bench"
	"seqver/internal/core"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// TestUnrollAcyclicAllocsPerGate pins the direct path's allocations:
// recording both walks and building their joint AIG costs at most 0.1
// allocations per unrolled gate on an s3384-shaped CBF pair and an
// ex5-shaped EDBF pair (no per-gate name, node or map entry).
func TestUnrollAcyclicAllocsPerGate(t *testing.T) {
	c1, c2, err := cbfPair(bench.Spec{Name: "s3384-0", Latches: 183, FeedbackFrac: 0.39}, true)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2, err := edbfPair(bench.IndustrialSpec{Name: "ex5-0", Latches: 672, FSMFrac: 305.0 / 672, MemFrac: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		method string
		c1, c2 *netlist.Circuit
	}{{"cbf", c1, c2}, {"edbf", e1, e2}} {
		ctx := context.Background()
		u, err := core.UnrollAcyclicCtx(ctx, tc.c1, tc.c2, false)
		if err != nil {
			t.Fatal(err)
		}
		if u.Method != tc.method {
			t.Fatalf("method %s, want %s", u.Method, tc.method)
		}
		gates := u.UnrolledGates[0] + u.UnrolledGates[1]
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := core.UnrollAcyclicCtx(ctx, tc.c1, tc.c2, false); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / float64(gates); per > 0.1 {
			t.Errorf("%s: %.0f allocations for %d unrolled gates: %.3f per gate, want at most 0.1", tc.method, allocs, gates, per)
		} else {
			t.Logf("%s: %.0f allocations for %d unrolled gates (%.3f per gate)", tc.method, allocs, gates, per)
		}
	}
}

// TestUnrollPairExposesWithoutCopies pins that UnrollPairCtx exposes
// the feedback latches through cuts rather than copies: on the ex5-0
// pair it allocates at most 1.3 times the bytes, and at most 100 more
// objects than, UnrollAcyclicCtx on the exposed circuits PrepareCtx and
// MatchExposure build. Exposing and sweeping copies of both circuits,
// as that route does, allocates more than twice those bytes.
func TestUnrollPairExposesWithoutCopies(t *testing.T) {
	c1, c2 := ex5Pair(t, 0)
	ctx := context.Background()
	p, err := core.PrepareCtx(ctx, c1, core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := core.MatchExposure(c2, p.Exposed)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(f func() error) (bytes, objects float64) {
		const runs = 4
		if err := f(); err != nil { // warm up
			t.Fatal(err)
		}
		b0, o0, _ := obs.MemCounters()
		for i := 0; i < runs; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		b1, o1, _ := obs.MemCounters()
		return float64(b1-b0) / runs, float64(o1-o0) / runs
	}
	cutB, cutO := measure(func() error {
		_, err := core.UnrollPairCtx(ctx, c1, c2, core.PrepareOptions{}, false)
		return err
	})
	walkB, walkO := measure(func() error {
		_, err := core.UnrollAcyclicCtx(ctx, p.Circuit, b2, false)
		return err
	})
	t.Logf("UnrollPairCtx: %.0f bytes in %.0f objects; walks over the exposed copies: %.0f bytes in %.0f objects",
		cutB, cutO, walkB, walkO)
	if cutB > 1.3*walkB || cutO > walkO+100 {
		t.Errorf("UnrollPairCtx allocates %.0f bytes in %.0f objects, want at most %.0f bytes and %.0f objects",
			cutB, cutO, 1.3*walkB, walkO+100)
	}
}
