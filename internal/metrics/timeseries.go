package metrics

import (
	"sync"
	"time"
)

// Sample is one time-series row: the daemon-level signals an operator
// watches live on the dashboard, taken once per sampler interval
// (1 s by default). Rates are computed by the collector as deltas of
// the registry's cumulative counters over the sampling interval;
// latency quantiles come from the windowed delta of the job-latency
// histogram (the same log₂ buckets /metrics exposes).
type Sample struct {
	// TS is the sample instant in unix milliseconds.
	TS int64 `json:"ts"`
	// QueueDepth / Running mirror the seqver_jobs_queued and
	// seqver_jobs_running gauges.
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`
	// CacheHitRatio is hits/(hits+misses) over the process lifetime
	// (0 when the cache has seen no lookups).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Throughput rates over the sampling interval, in jobs/s: jobs that
	// reached done with a decided verdict, done-but-undecided jobs
	// (budget exhausted), and failed / rejected / quarantined terminals.
	DecidedPerSec   float64 `json:"decided_per_sec"`
	UndecidedPerSec float64 `json:"undecided_per_sec"`
	FailedPerSec    float64 `json:"failed_per_sec"`
	RejectedPerSec  float64 `json:"rejected_per_sec"`
	// P50Seconds / P99Seconds are windowed job-latency quantiles over
	// the sampling interval (0 when no job finished in the window).
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// Runtime telemetry from the RuntimeCollector: heap in use and live
	// goroutines at the tick, the allocation rate over the interval, and
	// the windowed p99 stop-the-world GC pause (0 when no GC ran).
	HeapInuseBytes    int64   `json:"heap_inuse_bytes"`
	Goroutines        int64   `json:"goroutines"`
	AllocBytesPerSec  float64 `json:"alloc_bytes_per_sec"`
	GCPauseP99Seconds float64 `json:"gc_pause_p99_seconds"`
}

// TimeSeries is a fixed-capacity ring of Samples — the daemon's
// in-process history, bounded by construction (capacity × interval of
// retention, oldest rows overwritten). Writes come from the single
// sampler goroutine; reads (the /api/v1/stats/timeseries handler) are
// concurrent-safe.
type TimeSeries struct {
	mu       sync.RWMutex
	samples  []Sample
	next     int // ring write cursor
	filled   bool
	interval time.Duration
}

// NewTimeSeries returns a ring retaining capacity samples taken every
// interval. Non-positive arguments select the defaults (900 × 1 s —
// fifteen minutes of history in ~70 KiB).
func NewTimeSeries(capacity int, interval time.Duration) *TimeSeries {
	if capacity <= 0 {
		capacity = 900
	}
	if interval <= 0 {
		interval = time.Second
	}
	return &TimeSeries{samples: make([]Sample, capacity), interval: interval}
}

// Interval returns the sampling cadence the ring was built for.
func (ts *TimeSeries) Interval() time.Duration { return ts.interval }

// Capacity returns the maximum retained sample count.
func (ts *TimeSeries) Capacity() int { return len(ts.samples) }

// Record appends one sample, overwriting the oldest once full.
func (ts *TimeSeries) Record(s Sample) {
	ts.mu.Lock()
	ts.samples[ts.next] = s
	ts.next++
	if ts.next == len(ts.samples) {
		ts.next = 0
		ts.filled = true
	}
	ts.mu.Unlock()
}

// Len returns the number of samples currently retained.
func (ts *TimeSeries) Len() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if ts.filled {
		return len(ts.samples)
	}
	return ts.next
}

// Window returns the retained samples from the last d of history,
// oldest first. A non-positive or over-large d is clamped to the full
// retained ring; the window is selected by count (d / interval), not
// by timestamp, so a paused sampler cannot make the result unbounded.
func (ts *TimeSeries) Window(d time.Duration) []Sample {
	want := ts.Capacity()
	if d > 0 {
		if n := int(d / ts.interval); n < want {
			want = n
		}
		if want < 1 {
			want = 1
		}
	}
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	have := ts.next
	if ts.filled {
		have = len(ts.samples)
	}
	if want > have {
		want = have
	}
	out := make([]Sample, 0, want)
	start := ts.next - want
	if start < 0 {
		start += len(ts.samples)
	}
	for i := 0; i < want; i++ {
		out = append(out, ts.samples[(start+i)%len(ts.samples)])
	}
	return out
}

// Sampler drives a TimeSeries from a collect callback on a fixed
// ticker, in one background goroutine. Stop drains it on shutdown:
// one final sample is taken so the history ends at the instant the
// daemon stopped, then the goroutine exits and Stop returns. collect
// is only ever invoked from the sampler goroutine, so it may keep
// un-synchronized state (previous counter values for rate deltas).
type Sampler struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSampler begins sampling ts.Interval()-spaced rows into ts.
func StartSampler(ts *TimeSeries, collect func(now time.Time) Sample) *Sampler {
	s := &Sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		ticker := time.NewTicker(ts.Interval())
		defer ticker.Stop()
		for {
			select {
			case now := <-ticker.C:
				ts.Record(collect(now))
			case <-s.stop:
				ts.Record(collect(time.Now()))
				return
			}
		}
	}()
	return s
}

// Stop takes the final sample and waits for the goroutine to exit.
// Safe to call more than once; a nil Sampler is a no-op.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
