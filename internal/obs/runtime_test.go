package obs

import "testing"

var memSink []*[64]byte

// TestMemCountersCountEveryAllocation: the counters are exact, so a
// delta around n heap allocations of a known size reads at least n
// objects and their bytes (the harness's own allocations can only add).
func TestMemCountersCountEveryAllocation(t *testing.T) {
	const n = 1000
	memSink = make([]*[64]byte, 0, n)
	b0, o0, p0 := MemCounters()
	for range n {
		memSink = append(memSink, new([64]byte))
	}
	b1, o1, p1 := MemCounters()
	if o1-o0 < n || b1-b0 < n*64 {
		t.Fatalf("counted %d objects, %d bytes around %d allocations of 64 bytes", o1-o0, b1-b0, n)
	}
	if p1 < p0 {
		t.Fatalf("GC pause total went back from %d to %d ns", p0, p1)
	}
	memSink = nil
}
