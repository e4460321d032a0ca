package obs

import (
	"math"
	"runtime/metrics"
)

// The runtime/metrics keys MemCounters reads. All are cumulative; the
// sampling rides runtime/metrics, not runtime.ReadMemStats, so a read
// stops no world.
const (
	rmAllocBytes   = "/gc/heap/allocs:bytes"          // cumulative allocated bytes
	rmAllocObjects = "/gc/heap/allocs:objects"        // cumulative allocated objects
	rmGCPauses     = "/sched/pauses/total/gc:seconds" // stop-the-world pause histogram
)

// histTotalNS estimates the cumulative time in a runtime/metrics
// duration histogram, in nanoseconds: count × bucket upper bound,
// falling back to the lower bound for the open-ended last bucket. A
// conservative (over-)estimate with bucket resolution — the runtime
// exposes no exact pause total, and for a regression signal the bound
// is what matters.
func histTotalNS(h *metrics.Float64Histogram) int64 {
	if h == nil {
		return 0
	}
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		upper := h.Buckets[i+1]
		if math.IsInf(upper, +1) {
			upper = h.Buckets[i]
		}
		total += float64(n) * upper
	}
	return int64(total * 1e9)
}

// MemCounters returns the process's cumulative heap-allocation counters
// and estimated cumulative GC pause time, for harnesses (perfbench)
// that account allocation around a timed region by delta. The
// counters are process-wide, so a delta is exact only when nothing
// else runs in the process.
func MemCounters() (allocBytes, allocObjects uint64, gcPauseNS int64) {
	buf := [3]metrics.Sample{
		{Name: rmAllocBytes},
		{Name: rmAllocObjects},
		{Name: rmGCPauses},
	}
	metrics.Read(buf[:])
	if buf[0].Value.Kind() == metrics.KindUint64 {
		allocBytes = buf[0].Value.Uint64()
	}
	if buf[1].Value.Kind() == metrics.KindUint64 {
		allocObjects = buf[1].Value.Uint64()
	}
	if buf[2].Value.Kind() == metrics.KindFloat64Histogram {
		gcPauseNS = histTotalNS(buf[2].Value.Float64Histogram())
	}
	return allocBytes, allocObjects, gcPauseNS
}
