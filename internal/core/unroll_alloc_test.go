package core_test

import (
	"context"
	"testing"

	"seqver/internal/bench"
	"seqver/internal/core"
	"seqver/internal/netlist"
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
