package obs

import (
	"math"
	"runtime/metrics"
)

// Span-scoped allocation attribution: a MemScope samples the Go
// runtime's allocation and GC counters when a coarse phase span opens
// and emits the deltas as gauges on that span when the phase ends, so a
// trace answers "which phase allocated those bytes" without a heap
// profiler attached. The ROADMAP's struct-of-arrays refactor (item 3)
// gates on exactly these numbers: per-phase alloc volume before and
// after, from the same harness.
//
// The sampling rides runtime/metrics, not runtime.ReadMemStats — no
// stop-the-world, safe on every coarse phase boundary. Only the coarse
// spans (parse, unroll, sim, fraig, miters) are scoped; per-miter spans
// stay untouched so the hot path keeps its zero-overhead contract.
//
// Attribution caveat: the counters are process-wide, so a concurrent
// phase (another job on the same daemon) bleeds into the delta. For the
// single-run CLIs the attribution is exact; for the daemon it is a
// per-phase upper bound, which is the honest thing a Go runtime can
// give without per-goroutine allocation accounting.

// The runtime/metrics keys MemScope samples. All are cumulative except
// the live-heap byte count.
const (
	rmAllocBytes   = "/gc/heap/allocs:bytes"              // cumulative allocated bytes
	rmAllocObjects = "/gc/heap/allocs:objects"            // cumulative allocated objects
	rmGCCycles     = "/gc/cycles/total:gc-cycles"         // completed GC cycles
	rmGCPauses     = "/sched/pauses/total/gc:seconds"     // stop-the-world pause histogram
	rmHeapLive     = "/memory/classes/heap/objects:bytes" // live heap bytes
)

// memSample is one reading of the sampled counters.
type memSample struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	pauseNS      int64
	heapLive     uint64
}

func readMemSample() memSample {
	buf := [5]metrics.Sample{
		{Name: rmAllocBytes},
		{Name: rmAllocObjects},
		{Name: rmGCCycles},
		{Name: rmGCPauses},
		{Name: rmHeapLive},
	}
	metrics.Read(buf[:])
	var s memSample
	if buf[0].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = buf[0].Value.Uint64()
	}
	if buf[1].Value.Kind() == metrics.KindUint64 {
		s.allocObjects = buf[1].Value.Uint64()
	}
	if buf[2].Value.Kind() == metrics.KindUint64 {
		s.gcCycles = buf[2].Value.Uint64()
	}
	if buf[3].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauseNS = histTotalNS(buf[3].Value.Float64Histogram())
	}
	if buf[4].Value.Kind() == metrics.KindUint64 {
		s.heapLive = buf[4].Value.Uint64()
	}
	return s
}

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
// and estimated cumulative GC pause time — the same readings MemScope
// samples — for harnesses (cmd/cecbench) that account allocation around
// a timed region by delta.
func MemCounters() (allocBytes, allocObjects uint64, gcPauseNS int64) {
	s := readMemSample()
	return s.allocBytes, s.allocObjects, s.pauseNS
}

// MemScope attributes runtime allocation to one span. It travels by
// value so the not-tracing path (nil span) costs one nil check and
// allocates nothing — the same contract Start pins (see
// TestMemScopeZeroAllocNoTracer).
type MemScope struct {
	sp   *Span
	base memSample
}

// SpanMem opens a memory scope on sp: the runtime counters are sampled
// now, and End emits the deltas as gauges on the span. A nil span
// yields the inert scope.
func SpanMem(sp *Span) MemScope {
	if sp == nil {
		return MemScope{}
	}
	return MemScope{sp: sp, base: readMemSample()}
}

// End samples the counters again and emits the phase's memory account
// on the span:
//
//	mem.alloc_bytes      bytes allocated during the scope
//	mem.alloc_objects    objects allocated during the scope
//	mem.gc_cycles        GC cycles completed during the scope
//	mem.gc_pause_ns      estimated stop-the-world pause time accrued
//	mem.heap_live_bytes  live heap at scope end (absolute, not a delta)
//
// Call End before the span's own End so the gauges land inside the
// span. Safe on the inert scope.
func (m MemScope) End() {
	if m.sp == nil {
		return
	}
	cur := readMemSample()
	m.sp.Gauge("mem.alloc_bytes", int64(cur.allocBytes-m.base.allocBytes))
	m.sp.Gauge("mem.alloc_objects", int64(cur.allocObjects-m.base.allocObjects))
	m.sp.Gauge("mem.gc_cycles", int64(cur.gcCycles-m.base.gcCycles))
	m.sp.Gauge("mem.gc_pause_ns", cur.pauseNS-m.base.pauseNS)
	m.sp.Gauge("mem.heap_live_bytes", int64(cur.heapLive))
}
