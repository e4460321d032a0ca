package metrics

import (
	"math"
	"runtime"
	rm "runtime/metrics"
	"time"
)

// Runtime telemetry: the daemon-level GC and memory signals that the
// per-span attribution in internal/obs cannot give an operator — the
// process-wide picture over time. A RuntimeCollector is driven from the
// same 1 s sampler tick as the job-throughput collector; each Collect
// updates four Prometheus families on the registry and returns a
// RuntimeSample for the timeseries ring (and dashboard panel):
//
//	seqver_heap_inuse_bytes     gauge      bytes in in-use heap spans
//	seqver_alloc_bytes_total    counter    cumulative allocated bytes
//	seqver_goroutines           gauge      live goroutine count
//	seqver_gc_cycles_total      counter    completed GC cycles
//	seqver_gc_pause_seconds     histogram  stop-the-world pause durations
//
// Like every *_seconds family in this registry, the pause histogram is
// observed in nanoseconds and rescaled at exposition. All readings come
// from runtime/metrics (no stop-the-world, unlike ReadMemStats).

// Keys sampled from runtime/metrics.
const (
	rkAllocBytes = "/gc/heap/allocs:bytes"
	rkGCCycles   = "/gc/cycles/total:gc-cycles"
	rkGCPauses   = "/sched/pauses/total/gc:seconds"
	rkHeapObj    = "/memory/classes/heap/objects:bytes"
	rkHeapUnused = "/memory/classes/heap/unused:bytes"
)

// HeapInuseBytes is the process's heap in use: bytes in in-use heap
// spans, reconstructed as objects + unused — the two runtime/metrics
// classes that make up MemStats.HeapInuse — without ReadMemStats's
// stop-the-world. It is the one heap reading the daemon uses, for the
// seqver_heap_inuse_bytes gauge, the dashboard memory panel and the
// watchdog's memory ceiling alike.
func HeapInuseBytes() int64 {
	s := [2]rm.Sample{{Name: rkHeapObj}, {Name: rkHeapUnused}}
	rm.Read(s[:])
	return int64(u64(s[0]) + u64(s[1]))
}

// RuntimeSample is the runtime slice of one timeseries row.
type RuntimeSample struct {
	// HeapInuseBytes is the bytes in in-use heap spans at the tick.
	HeapInuseBytes int64
	// Goroutines is the live goroutine count at the tick.
	Goroutines int64
	// AllocBytesPerSec is the allocation rate over the tick interval.
	AllocBytesPerSec float64
	// GCPauseP99Seconds is the p99 stop-the-world pause over the tick
	// interval (0 when no GC ran in the window).
	GCPauseP99Seconds float64
}

// RuntimeCollector samples the Go runtime into a Registry. It keeps the
// previous reading for rate deltas, so — like the sampler's collect
// callback it is designed to live in — it must only be called from one
// goroutine.
type RuntimeCollector struct {
	heap       *Gauge
	allocTotal *Counter
	goroutines *Gauge
	gcCycles   *Counter
	gcPause    *Histogram

	buf       [3]rm.Sample
	prevT     time.Time
	prevAlloc uint64
	// prevPause copies the cumulative pause-histogram counts — rm.Read
	// reuses the histogram buffers in buf, so holding the pointer would
	// alias the next reading.
	prevPause  []uint64
	prevCycles uint64
	prevSnap   HistogramSnapshot
	primed     bool
}

// NewRuntimeCollector registers the runtime families on reg (a nil
// registry yields no-op instruments; the collector still returns live
// samples) and takes the baseline reading that the first Collect's
// deltas are computed against.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	rc := &RuntimeCollector{
		heap: reg.Gauge("seqver_heap_inuse_bytes",
			"Bytes in in-use heap spans (live objects plus span slack)."),
		allocTotal: reg.Counter("seqver_alloc_bytes_total",
			"Cumulative bytes allocated on the heap since process start."),
		goroutines: reg.Gauge("seqver_goroutines",
			"Goroutines currently live."),
		gcCycles: reg.Counter("seqver_gc_cycles_total",
			"Garbage collection cycles completed."),
		gcPause: reg.Histogram("seqver_gc_pause_seconds",
			"Stop-the-world GC pause durations."),
	}
	rc.buf = [3]rm.Sample{
		{Name: rkAllocBytes},
		{Name: rkGCCycles},
		{Name: rkGCPauses},
	}
	return rc
}

// Collect reads the runtime, updates the registry families, and returns
// the sample for the timeseries row. now is the tick instant (rate
// denominators come from the spacing between calls).
func (rc *RuntimeCollector) Collect(now time.Time) RuntimeSample {
	rm.Read(rc.buf[:])
	allocBytes := u64(rc.buf[0])
	gcCycles := u64(rc.buf[1])
	var pauses *rm.Float64Histogram
	if rc.buf[2].Value.Kind() == rm.KindFloat64Histogram {
		pauses = rc.buf[2].Value.Float64Histogram()
	}
	heapInuse := HeapInuseBytes()
	goroutines := int64(runtime.NumGoroutine())

	rc.heap.Set(heapInuse)
	rc.goroutines.Set(goroutines)

	out := RuntimeSample{HeapInuseBytes: heapInuse, Goroutines: goroutines}
	if rc.primed {
		if d := allocBytes - rc.prevAlloc; d > 0 {
			rc.allocTotal.Add(int64(d))
			if dt := now.Sub(rc.prevT).Seconds(); dt > 0 {
				out.AllocBytesPerSec = float64(d) / dt
			}
		}
		if d := gcCycles - rc.prevCycles; d > 0 {
			rc.gcCycles.Add(int64(d))
		}
		rc.observePauses(pauses)
		snap := rc.gcPause.Snapshot()
		if delta := snap.Sub(rc.prevSnap); delta.Count > 0 {
			out.GCPauseP99Seconds = delta.Quantile(0.99) / 1e9
		}
		rc.prevSnap = snap
	} else {
		// First tick: seed the counters with the pre-collector history so
		// the totals match the runtime's own, then report rates as zero.
		rc.allocTotal.Add(int64(allocBytes))
		rc.gcCycles.Add(int64(gcCycles))
		rc.prevSnap = rc.gcPause.Snapshot()
		rc.primed = true
	}
	rc.prevT, rc.prevAlloc, rc.prevCycles = now, allocBytes, gcCycles
	if pauses != nil {
		rc.prevPause = append(rc.prevPause[:0], pauses.Counts...)
	}
	return out
}

// observePauses replays the new entries of the runtime's cumulative
// pause histogram into the registry histogram: for each bucket whose
// count grew since the previous tick, one observation per new pause at
// the bucket's upper bound (lower bound for the open-ended last
// bucket). Bucket-resolution, conservative — the runtime does not
// expose individual pause durations.
func (rc *RuntimeCollector) observePauses(cur *rm.Float64Histogram) {
	if cur == nil {
		return
	}
	prev := rc.prevPause
	for i, n := range cur.Counts {
		if i < len(prev) {
			if p := prev[i]; p <= n {
				n -= p
			} else {
				n = 0
			}
		}
		if n == 0 {
			continue
		}
		upper := cur.Buckets[i+1]
		if math.IsInf(upper, +1) {
			upper = cur.Buckets[i]
		}
		ns := int64(upper * 1e9)
		for ; n > 0; n-- {
			rc.gcPause.Observe(ns)
		}
	}
}

func u64(s rm.Sample) uint64 {
	if s.Value.Kind() == rm.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}
