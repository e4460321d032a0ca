package faults

import (
	"strings"
	"testing"
	"time"
)

// TestDisabledZeroAlloc pins the production overhead contract: with no
// plan installed, Fire is a nil check and allocates nothing. This
// mirrors obs.TestNoTracerZeroAlloc / metrics.TestNoRegistryZeroAlloc.
func TestDisabledZeroAlloc(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		if Fire(WorkerPanic) || Fire(DiskFull) || Fire(SolverStall) {
			t.Fatal("disabled injection fired")
		}
		if Delay() != 0 {
			t.Fatal("disabled injection has a delay")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled Fire allocates %.1f per run, want 0", allocs)
	}
}

// TestDeterministicStream: same seed and call sequence, same decisions.
func TestDeterministicStream(t *testing.T) {
	run := func() []bool {
		pl, err := Parse("seed=42,worker_panic=0.5,disk_full=0.1")
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, pl.fire(WorkerPanic), pl.fire(DiskFull))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeded runs", i)
		}
	}
	fired := 0
	for _, v := range a {
		if v {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("no decision fired over 200 draws at p=0.5")
	}
}

func TestInstallFireCounts(t *testing.T) {
	pl, err := Parse("seed=7,disk_full=1")
	if err != nil {
		t.Fatal(err)
	}
	Install(pl)
	defer Disable()
	if !Enabled() {
		t.Fatal("plan installed but Enabled() false")
	}
	for i := 0; i < 3; i++ {
		if !Fire(DiskFull) {
			t.Fatal("p=1 point did not fire")
		}
	}
	// Unconfigured points never fire even with a plan installed.
	if Fire(WorkerPanic) {
		t.Fatal("unconfigured point fired")
	}
	c := pl.Counts()
	if got := c["disk_full"]; got.Calls != 3 || got.Fired != 3 {
		t.Fatalf("disk_full counts: %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"worker_panic",          // not key=value
		"worker_panic=2",        // probability out of range
		"worker_panic=x",        // not a number
		"quantum_flip=0.5",      // unknown point
		"seed=abc,disk_full=1",  // bad seed
		"delay=-5s,disk_full=1", // negative delay
		"seed=3",                // no injection point at all
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestParseSpec(t *testing.T) {
	pl, err := Parse(" seed=9 , delay=1s , slow_parse=1 ")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Seed() != 9 || pl.delay != time.Second {
		t.Fatalf("seed=%d delay=%v", pl.Seed(), pl.delay)
	}
	if s := pl.String(); !strings.Contains(s, "slow_parse=1") || !strings.Contains(s, "seed=9") {
		t.Fatalf("String() = %q", s)
	}
	// Empty spec: injection stays off, no error.
	if pl, err := Parse("  "); pl != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", pl, err)
	}
}
