package obs

import (
	"math"
	"runtime/metrics"
	"testing"
)

// TestHistTotalNS checks the pause-total estimator against a
// hand-built histogram, including the open-ended last bucket.
func TestHistTotalNS(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{2, 0, 1},
		Buckets: []float64{0, 1e-6, 1e-3, math.Inf(1)},
	}
	// 2 × 1e-6 s + 1 × 1e-3 s (lower bound of the +Inf bucket) = 1.002 ms
	want := int64(2*1e3 + 1e6)
	if got := histTotalNS(h); got != want {
		t.Fatalf("histTotalNS = %d, want %d", got, want)
	}
	if histTotalNS(nil) != 0 {
		t.Fatal("nil histogram must total 0")
	}
}
