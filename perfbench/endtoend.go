package main

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tally accumulates one run's operations. Every method is safe for
// concurrent use, since daemon_repeat records from several clients.
type tally struct {
	mu        sync.Mutex
	latencies []float64 // seconds per decided pair, scaled to the nominal host speed
	raw       []float64 // the same samples as measured by the wall clock
	attempted int
	failed    int
	engines   map[string]bool
}

func (t *tally) record(lat time.Duration, engine string, failed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if failed {
		t.failed++
		return
	}
	t.latencies = append(t.latencies, lat.Seconds())
	t.raw = append(t.raw, lat.Seconds())
	if engine != "" {
		if t.engines == nil {
			t.engines = map[string]bool{}
		}
		t.engines[engine] = true
	}
}

// scaleFrom scales the samples from the n-th on by f (see hostScale).
func (t *tally) scaleFrom(n int, f float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := n; i < len(t.latencies); i++ {
		t.latencies[i] *= f
	}
}

func (t *tally) samples() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.latencies)
}

func (t *tally) engineList() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var es []string
	for e := range t.engines {
		es = append(es, e)
	}
	sort.Strings(es)
	return es
}

// roundFunc decides every pair of one round and records each operation.
type roundFunc func(ctx context.Context, order []int, t *tally) error

// segmentPairs is how many pairs a run decides between two host probes.
const segmentPairs = 16

// endToEndRun is the untraced run: set up the pairs several times, warm
// up, then run whole rounds over every pair until the time budget is
// spent, at least minRounds rounds have run, and the p90 gate holds.
// Every timed stretch lies between two host probes, and its times are
// scaled to the nominal host speed by hostScale.
func endToEndRun(ctx context.Context, w *workload, seed int64, budget time.Duration) (*result, *env, error) {
	probe, err := newHostProbe()
	if err != nil {
		return nil, nil, err
	}
	defer probe.close()
	var pairs []pair
	var setups, rawSetups []float64
	for r := 0; r < setupRepeats; r++ {
		before := probe.measure()
		start := time.Now()
		ps, err := buildPairs(w)
		if err != nil {
			return nil, nil, err
		}
		if w.daemon {
			// seqverd pays its server start before the first job.
			srv, err := newServer()
			if err != nil {
				return nil, nil, err
			}
			rawSetups = append(rawSetups, time.Since(start).Seconds())
			srv.Drain(time.Minute)
		} else {
			rawSetups = append(rawSetups, time.Since(start).Seconds())
		}
		setups = append(setups, rawSetups[r]*hostScale(before, probe.measure()))
		pairs = ps
	}

	round := directRound(w, pairs)
	if w.daemon {
		round = daemonRound(pairs, seed, nil)
	}
	order := seededOrder(seed, len(pairs))
	if err := round(ctx, order[:min(warmupPairs, len(order))], &tally{}); err != nil {
		return nil, nil, err
	}

	heap := startHeapPeak()
	defer heap.stop()
	t := &tally{}
	var rates, rawRates, peaks, scales []float64
	start := time.Now()
	last := probe.measure()
	for {
		heap.take()
		n := t.samples()
		var wall, scaled float64
		for s := 0; s < len(order); s += segmentPairs {
			m := t.samples()
			r0 := time.Now()
			err := round(ctx, order[s:min(s+segmentPairs, len(order))], t)
			segWall := time.Since(r0).Seconds()
			if err != nil {
				return partial(t), &env{Engines: t.engineList()}, err
			}
			next := probe.measure()
			f := hostScale(last, next)
			last = next
			t.scaleFrom(m, f)
			scales = append(scales, f)
			wall += segWall
			scaled += segWall * f
		}
		peaks = append(peaks, float64(heap.take())/(1<<20))
		rates = append(rates, float64(t.samples()-n)/scaled)
		rawRates = append(rawRates, float64(t.samples()-n)/wall)
		_, beyond := p90(t.latencies)
		if time.Since(start) >= budget && len(rates) >= minRounds && beyond >= minBeyondP90 {
			break
		}
		if time.Since(start) >= maxTimed {
			return partial(t), &env{Engines: t.engineList()},
				fmt.Errorf("after %v only %d decided samples lie beyond p90", maxTimed, beyond)
		}
	}
	p90v, beyond := p90(t.latencies)
	rawP90, _ := p90(t.raw)
	res := partial(t)
	res.Metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"verdict_p50_s": {median(t.latencies), "s"},
		"verdict_p90_s": {p90v, "s"},
		"pairs_per_s":   {median(rates), "1/s"},
		"peak_heap_mb":  {median(peaks), "MB"},
	}
	fmt.Printf("# %s: %d pairs, %d verdict samples (%d beyond p90), %d rounds, setup runs %.3f s\n",
		w.name, len(pairs), len(t.latencies), beyond, len(rates), rawSetups)
	fmt.Printf("# wall clock, unscaled: setup_s %.4f, verdict_p50_s %.4f, verdict_p90_s %.4f, pairs_per_s %.3f; host scale median %.3f over %d probes, range %.3f to %.3f\n",
		median(rawSetups), median(t.raw), rawP90, median(rawRates),
		median(scales), len(scales), slices.Min(scales), slices.Max(scales))
	return res, &env{Engines: t.engineList()}, nil
}

func partial(t *tally) *result {
	return &result{Correct: true, Attempted: t.attempted, Failed: t.failed}
}

// directRound is one closed-loop client calling the verifier in-process,
// the way the seqver CLI does.
func directRound(w *workload, pairs []pair) roundFunc {
	return func(ctx context.Context, order []int, t *tally) error {
		for _, i := range order {
			if _, err := timedVerify(ctx, w, pairs[i], t); err != nil {
				return err
			}
		}
		return nil
	}
}

// timedVerify records one verification: the clock runs from parsing
// both BLIF texts to the checked verdict, counterexample replay included.
func timedVerify(ctx context.Context, w *workload, p pair, t *tally) (seconds float64, err error) {
	start := time.Now()
	engine, undecided, err := verifyPair(ctx, w, p)
	if err != nil {
		return 0, err
	}
	lat := time.Since(start)
	t.record(lat, engine, undecided)
	return lat.Seconds(), nil
}

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyondP90 is how many samples must lie beyond the p90 for it to be
// reported; with fewer, the percentile is one or two extreme draws.
const minBeyondP90 = 10

// p90 is the nearest-rank 90th percentile and the number of samples
// strictly above it.
func p90(xs []float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	v = s[int(math.Ceil(0.9*float64(len(s))))-1]
	return v, len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// heapPeak samples the heap in use (live and not-yet-swept objects)
// every few milliseconds and keeps the maximum since the last take.
type heapPeak struct {
	peak atomic.Uint64
	quit chan struct{}
	done chan struct{}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for cur := h.peak.Load(); v > cur && !h.peak.CompareAndSwap(cur, v); cur = h.peak.Load() {
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new window.
func (h *heapPeak) take() uint64 { return h.peak.Swap(0) }

func (h *heapPeak) stop() {
	close(h.quit)
	<-h.done
}
