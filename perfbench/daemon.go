package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"seqver/internal/serve"
)

// newServer starts an in-process daemon with seqverd's defaults: a
// memory-only result cache, no journal, no profiling ring. Logs are
// discarded so that the benchmark's output stays parseable.
func newServer() (*serve.Server, error) {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return srv, nil
}

// jobStats collects the serve-layer numbers of the traced run.
type jobStats struct {
	mu        sync.Mutex
	queueWait []float64 // Started - Created, seconds
	jobS      []float64 // Finished - Started, seconds
	hits      int
	jobs      int
}

func (js *jobStats) add(v *serve.JobView) {
	if js == nil || v.Started == nil || v.Finished == nil {
		return
	}
	js.mu.Lock()
	defer js.mu.Unlock()
	js.queueWait = append(js.queueWait, v.Started.Sub(v.Created).Seconds())
	js.jobS = append(js.jobS, v.Finished.Sub(*v.Started).Seconds())
	js.jobs++
	if v.Result != nil && v.Result.Cached {
		js.hits++
	}
}

// daemonRound runs the pairs it is given, a segment of a round, against a
// fresh server, so every pair's first submission misses the result
// cache. runtime.NumCPU() closed-loop
// clients share the pairs; each submits its own pairs in turn and,
// after every second one, repeats a pair it has already had answered.
// A third of the submissions are therefore repeats, not half: at half,
// the median would fall in the gap between the hit and miss latencies
// and read whichever extreme sample borders it.
func daemonRound(pairs []pair, seed int64, js *jobStats) roundFunc {
	round := int64(0)
	return func(ctx context.Context, order []int, t *tally) error {
		round++
		srv, err := newServer()
		if err != nil {
			return err
		}
		defer srv.Drain(time.Minute)
		clients := runtime.NumCPU()
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			var mine []int
			for k := c; k < len(order); k += clients {
				mine = append(mine, order[k])
			}
			rng := rand.New(rand.NewSource(seed*7919 + round*104729 + int64(c)))
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = daemonClient(srv, pairs, mine, rng, t, js)
			}(c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
}

func daemonClient(srv *serve.Server, pairs []pair, mine []int, rng *rand.Rand, t *tally, js *jobStats) error {
	var answered []int
	for k, i := range mine {
		if err := submit(srv, pairs[i], t, js); err != nil {
			return err
		}
		answered = append(answered, i)
		if k%2 == 1 {
			j := answered[rng.Intn(len(answered))]
			if err := submit(srv, pairs[j], t, js); err != nil {
				return err
			}
		}
	}
	return nil
}

// submit sends one pair as BLIF text with zero-valued options and waits
// for the job to end. The clock runs from submission to the terminal
// status, which includes queueing, parsing, preparation and either the
// cache lookup or the check. A refused, failed or undecided job counts
// as a failed operation; a verdict that contradicts the pair's known
// answer is an oracle violation. Cache hits are checked the same way:
// every pair's answer is known, so a hit that returned anything but its
// miss's verdict fails this check.
func submit(srv *serve.Server, p pair, t *tally, js *jobStats) error {
	start := time.Now()
	j, err := srv.Submit(&serve.JobRequest{
		Golden:  serve.SideSpec{BLIF: p.golden},
		Revised: serve.SideSpec{BLIF: p.revised},
	})
	if err != nil {
		t.record(0, "", true)
		return nil
	}
	<-j.Done()
	lat := time.Since(start)
	v := j.View()
	js.add(v)
	r := v.Result
	if v.Status != serve.StatusDone || r == nil || r.Verdict == "undecided" {
		t.record(lat, "", true)
		return nil
	}
	want := "inequivalent"
	if p.wantEquivalent {
		want = "equivalent"
	}
	if r.Verdict != want {
		return fmt.Errorf("%s: %w: daemon answered %s", p.name, errWrongVerdict, r.Verdict)
	}
	engine := ""
	if r.Stats != nil {
		engine = r.Stats.Engine
	}
	t.record(lat, engine, false)
	return nil
}
