package seqver_test

import (
	"testing"

	"seqver"
	"seqver/internal/bench"
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
