package seqver_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"seqver"
	"seqver/internal/bench"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// The digests below pin the unrolled circuits themselves, not only the
// miter hash: same node names, input order, ops, fanins, covers and
// event ids. They were recorded before the front end moved to slab
// allocation and dense unroll memos, and must not change with data
// layout work. The corpus names match perfbench's (s3384-<i>, ex5-<i>).

func blifDigest(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var b bytes.Buffer
	if err := netlist.WriteBLIF(&b, c); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestCBFUnrollGoldenS3384 pins cbf.Unroll of the prepared s3384-0
// corpus circuit and of its synthesized, min-period-retimed version,
// so the netlists built by synthesis and retiming are pinned as well.
func TestCBFUnrollGoldenS3384(t *testing.T) {
	const (
		wantPrepared = "ac8bcca2b30e5434410183ee3f7e6855586477d627551979c09bdbd37ea9c1ed"
		wantRetimed  = "f849bfe6a9524e96adacde44e7cbe462e3653f6bc05b5c30c9adff880959a5da"
	)
	sp := bench.Spec{Name: "s3384-0", Latches: 183, FeedbackFrac: 0.39}
	prep, err := seqver.Prepare(bench.Generate(sp), seqver.PrepareOptions{})
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
	for _, tc := range []struct {
		name string
		c    *netlist.Circuit
		want string
	}{{"prepared", prep.Circuit, wantPrepared}, {"retimed", rt.Circuit, wantRetimed}} {
		u, err := seqver.UnrollCBF(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if got := blifDigest(t, u); got != tc.want {
			t.Errorf("%s: CBF unrolling digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// ex5Unrolled reduces the ex5-0 corpus circuit against its synthesized
// version the way VerifyCtx does: prepare, match exposure, and unroll
// both sides through one shared EDBF context.
func ex5Unrolled(t *testing.T) (u1, u2 *netlist.Circuit, events int) {
	t.Helper()
	sp := bench.IndustrialSpec{Name: "ex5-0", Latches: 672, FSMFrac: 305.0 / 672, MemFrac: 0.15}
	a := bench.GenerateIndustrial(sp)
	syn, err := synth.Optimize(a, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(a, core.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := core.MatchExposure(syn, prep.Exposed)
	if err != nil {
		t.Fatal(err)
	}
	cx := edbf.NewCtx()
	if u1, err = cx.Unroll(prep.Circuit); err != nil {
		t.Fatal(err)
	}
	if u2, err = cx.Unroll(b2); err != nil {
		t.Fatal(err)
	}
	return u1, u2, cx.NumEvents()
}

// TestEDBFUnrollGoldenEx5 pins both EDBF unrollings of the ex5-0 pair
// and the number of events their shared context interned.
func TestEDBFUnrollGoldenEx5(t *testing.T) {
	const (
		wantGolden  = "8f278fb1aa4cd54feace657b344ad0b641a58f273cff1c8f492c84bd85632aa3"
		wantRevised = "5d8b22685beb6192a4fc683cf3ded731fd31b1f38f05006b986a527bed4fc352"
		wantEvents  = 202
	)
	u1, u2, events := ex5Unrolled(t)
	if got := blifDigest(t, u1); got != wantGolden {
		t.Errorf("golden side: EDBF unrolling digest = %s, want %s", got, wantGolden)
	}
	if got := blifDigest(t, u2); got != wantRevised {
		t.Errorf("revised side: EDBF unrolling digest = %s, want %s", got, wantRevised)
	}
	if events != wantEvents {
		t.Errorf("events = %d, want %d", events, wantEvents)
	}
}
