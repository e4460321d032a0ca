package serve

import (
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"seqver/internal/metrics"
)

// The supervisor is the daemon's per-job defense against pathological
// miters — the multiplier-core inputs the paper's §7.4 CEC lineage
// warns about. Every running attempt gets a watchdog goroutine that
// kills it when it shows no trace activity for the stall window or when
// the process heap in use crosses the memory ceiling; killed and panicked
// attempts are retried with exponential backoff + jitter under a
// degraded engine/budget ladder, and a job whose attempts are exhausted
// is quarantined — a terminal state that guarantees one adversarial
// circuit can never monopolize the pool.

// Watchdog kill reasons (the value of seqverd_watchdog_kills_total's
// reason label and the prefix of the job's retry cause).
const (
	killStall = "stall"
	killMem   = "mem"
)

// startWatchdog supervises one running attempt. It returns a stop
// function the run loop calls once the attempt ends (idempotent via
// channel close in the caller's defer ordering — stop is called exactly
// once).
func (s *Server) startWatchdog(j *Job) (stop func()) {
	stallNS := s.opt.StallTimeout.Nanoseconds()
	ceiling := s.opt.MemCeilingBytes
	if stallNS <= 0 && ceiling <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	// Poll fast enough to bound kill latency at a fraction of the
	// window, slow enough that the polling stays invisible.
	interval := s.opt.StallTimeout / 4
	if stallNS <= 0 || interval > time.Second {
		interval = time.Second
	}
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			if stallNS > 0 {
				idle := time.Now().UnixNano() - j.fan.lastActivity()
				if idle > stallNS {
					s.watchdogKills("stall").Inc()
					reason := fmt.Sprintf("%s: no progress events for %v (window %v)",
						killStall, time.Duration(idle).Round(time.Millisecond), s.opt.StallTimeout)
					s.log.Warn("watchdog kill",
						slog.String("job_id", j.ID), slog.String("reason", reason))
					j.kill(reason)
					return
				}
			}
			if ceiling > 0 {
				if heap := metrics.HeapInuseBytes(); heap > ceiling {
					s.watchdogKills("mem").Inc()
					reason := fmt.Sprintf("%s: process heap in use %d bytes over ceiling %d",
						killMem, heap, ceiling)
					s.log.Warn("watchdog kill",
						slog.String("job_id", j.ID), slog.String("reason", reason))
					j.kill(reason)
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

func (s *Server) watchdogKills(reason string) *metrics.Counter {
	return s.reg.CounterL("seqverd_watchdog_kills_total",
		"Running attempts killed by the per-job watchdog, by reason.", "reason", reason)
}

// retryOrQuarantine disposes of a retryable failure (watchdog kill or
// panic): park the job for a backoff window and requeue it, or — past
// MaxAttempts — quarantine it terminally.
func (s *Server) retryOrQuarantine(j *Job, cause string) {
	attempt := j.attempts()
	if attempt >= s.opt.MaxAttempts {
		s.reg.Counter("seqverd_quarantined_total",
			"Jobs quarantined after exhausting their retry attempts.").Inc()
		s.finishJob(j, StatusQuarantined, nil, fmt.Sprintf(
			"quarantined after %d attempts; last failure: %s", attempt, cause))
		return
	}
	delay := retryBackoff(s.opt.RetryBaseBackoff, s.opt.RetryMaxBackoff, attempt)
	s.reg.Counter("seqverd_retries_total",
		"Failed attempts rescheduled with backoff.").Inc()
	s.log.Warn("attempt failed, retrying",
		slog.String("job_id", j.ID), slog.Int("attempt", attempt),
		slog.Duration("backoff", delay), slog.String("cause", cause))
	s.journalAppend(journalRecord{Op: jopRetry, ID: j.ID, Attempt: attempt, Error: cause})
	j.setRetrying(cause)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.finishJob(j, StatusRejected, nil,
			"daemon drained during retry backoff: "+cause)
		return
	}
	s.retryTimers[j.ID] = time.AfterFunc(delay, func() { s.requeue(j) })
	s.mu.Unlock()
}

// requeue moves a job out of its backoff window back into the queue.
// Racing a drain is resolved under s.mu exactly like Submit: draining
// is set before the queue is closed, so checking it first makes the
// send safe.
func (s *Server) requeue(j *Job) {
	s.mu.Lock()
	delete(s.retryTimers, j.ID)
	if s.draining {
		s.mu.Unlock()
		s.finishJob(j, StatusRejected, nil, "daemon drained during retry backoff")
		return
	}
	select {
	case s.queue <- j:
		j.setQueued()
		s.mu.Unlock()
		s.queuedG.Add(1)
	default:
		s.mu.Unlock()
		s.finishJob(j, StatusFailed, nil, "retry dropped: queue full")
	}
}

// retryBackoff is exponential in the attempt number with full jitter,
// capped: base·2^(attempt-1) + U[0, base), ≤ max. Jitter decorrelates
// the retries of jobs that crashed together (a poison batch must not
// re-land as a thundering herd).
func retryBackoff(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	d += time.Duration(rand.Int63n(int64(base)))
	if d > max {
		d = max
	}
	return d
}

// retryBudget is the retry ladder, in budget_ms: attempts 1 and 2 run
// the request as submitted; attempt 3 and later halve the budget each
// attempt so a stalling miter converges toward a fast structured
// Undecided instead of burning the pool — the ladder's last rung before
// quarantine. The engine never changes: every retry reruns the
// submitted one.
func retryBudget(req *JobRequest, attempt int, defaultBudget time.Duration) int64 {
	if attempt <= 2 {
		return req.BudgetMS
	}
	ms := req.BudgetMS
	if ms <= 0 {
		ms = defaultBudget.Milliseconds()
	}
	for i := 2; i < attempt; i++ {
		ms /= 2
	}
	if ms < 100 {
		ms = 100 // floor: enough for hash + structural phases
	}
	return ms
}
