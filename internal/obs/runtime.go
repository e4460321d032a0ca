package obs

import "runtime"

// MemCounters returns the process's cumulative heap-allocation counters
// and cumulative GC pause time, for harnesses (perfbench) that account
// allocation around a timed region by delta. It reads
// runtime.ReadMemStats, whose counts are exact (tiny allocations
// included) at the cost of a brief stop of the world, so it belongs
// around a timed region, not inside one. The counters are
// process-wide, so a delta is exact only when nothing else runs in the
// process.
func MemCounters() (allocBytes, allocObjects uint64, gcPauseNS int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs, int64(ms.PauseTotalNs)
}
