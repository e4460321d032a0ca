package seqver_test

import (
	"context"
	"testing"

	"seqver"
	"seqver/internal/bench"
	"seqver/internal/core"
	"seqver/internal/netlist"
	"seqver/internal/synth"
)

// TestMiterHashGoldenS3384 pins the content address of a fixed
// verification problem: the prepared s3384 corpus circuit, CBF-unrolled
// and mitered against itself. The constant is the daemon's cache key
// for this problem; a change here means every persistent cache entry in
// the wild silently misses after an upgrade. That can be a legitimate
// cost (the hash function or the pipeline changed semantics), but it
// must be a deliberate one — update the constant only with a note in
// the commit explaining why old cache entries must be invalidated.
func TestMiterHashGoldenS3384(t *testing.T) {
	const want = "bca2b189e6d692cce23b0c3952293c7a"

	var spec bench.Spec
	for _, sp := range bench.Table1Specs {
		if sp.Name == "s3384" {
			spec = sp
		}
	}
	if spec.Name == "" {
		t.Fatal("s3384 missing from bench.Table1Specs")
	}
	c := bench.Generate(spec)
	prep, err := seqver.Prepare(c, seqver.PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := seqver.UnrollCBF(prep.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := seqver.MiterHash(u, u)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("s3384 miter hash = %s, want %s (cache keys of deployed daemons change!)", got, want)
	}
}

// TestMiterHashGoldenEx5 pins the cache key of an EDBF problem: the
// ex5-0 corpus circuit against its synthesized version, prepared and
// unrolled through one shared event context. Event ids are part of the
// unrolled input names, so this constant also pins event interning
// order. The same rule as for the s3384 constant applies.
func TestMiterHashGoldenEx5(t *testing.T) {
	const want = "84c25b5aa7959072454b39d0d33f8f61"

	u1, u2, _ := ex5Unrolled(t)
	got, err := seqver.MiterHash(u1, u2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("ex5 miter hash = %s, want %s (cache keys of deployed daemons change!)", got, want)
	}
}

// TestUnrollPairMiterHashGolden pins the daemon's cache keys: the
// daemon reduces a pair with core.UnrollPairCtx, which reads both
// circuits through cuts instead of exposing copies of them, and its
// MiterHash must be the constant of TestMiterHashGoldenEx5 on the ex5-0
// pair and of TestMiterHashGoldenS3384 on the s3384 circuit against
// itself.
func TestUnrollPairMiterHashGolden(t *testing.T) {
	const (
		wantEx5   = "84c25b5aa7959072454b39d0d33f8f61" // TestMiterHashGoldenEx5
		wantS3384 = "bca2b189e6d692cce23b0c3952293c7a" // TestMiterHashGoldenS3384
	)
	sp := bench.IndustrialSpec{Name: "ex5-0", Latches: 672, FSMFrac: 305.0 / 672, MemFrac: 0.15}
	a := bench.GenerateIndustrial(sp)
	syn, err := synth.Optimize(a, synth.DefaultScript())
	if err != nil {
		t.Fatal(err)
	}
	var s3384 bench.Spec
	for _, sp := range bench.Table1Specs {
		if sp.Name == "s3384" {
			s3384 = sp
		}
	}
	c := bench.Generate(s3384)
	for _, tc := range []struct {
		name   string
		c1, c2 *netlist.Circuit
		want   string
	}{{"ex5-0", a, syn, wantEx5}, {"s3384", c, c, wantS3384}} {
		u, err := core.UnrollPairCtx(context.Background(), tc.c1, tc.c2, core.PrepareOptions{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := u.MiterHash(); got != tc.want {
			t.Errorf("%s: UnrollPairCtx miter hash = %s, want %s (cache keys of deployed daemons change!)", tc.name, got, tc.want)
		}
	}
}
