package serve

import (
	"strings"
	"testing"
	"time"

	"seqver/internal/faults"
)

func installFaults(t *testing.T, spec string) {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faults.Install(plan)
	t.Cleanup(faults.Disable)
}

// TestQuarantineAfterMaxAttempts is the poison-job contract: a job
// whose every attempt panics terminates — quarantined, not looping —
// after exactly MaxAttempts attempts.
func TestQuarantineAfterMaxAttempts(t *testing.T) {
	installFaults(t, "seed=3,worker_panic=1")
	s, err := New(Options{
		Workers: 1, MaxAttempts: 2,
		RetryBaseBackoff: 5 * time.Millisecond, RetryMaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)

	j, err := s.Submit(inlineReq())
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, s, j.ID)
	if v.Status != StatusQuarantined {
		t.Fatalf("always-panicking job: status %s, want quarantined (%+v)", v.Status, v)
	}
	if v.Attempts != 2 {
		t.Errorf("attempts = %d, want exactly MaxAttempts (2)", v.Attempts)
	}
	if !strings.Contains(v.Error, "worker panic") || !strings.Contains(v.Error, "2 attempts") {
		t.Errorf("quarantine error: %q", v.Error)
	}
	if n := counterValue(t, s, "seqverd_retries_total"); n != 1 {
		t.Errorf("retries = %d, want 1 (attempt 1 retried, attempt 2 quarantined)", n)
	}
	if n := counterValue(t, s, "seqverd_quarantined_total"); n != 1 {
		t.Errorf("quarantined = %d, want 1", n)
	}
}

// TestWatchdogStallKillThenRecovery: a wedged first attempt is killed
// by the stall watchdog and retried; once the wedge clears, the retry
// decides the pair for real.
func TestWatchdogStallKillThenRecovery(t *testing.T) {
	installFaults(t, "seed=1,solver_stall=1")
	s, err := New(Options{
		Workers: 1, MaxAttempts: 3, StallTimeout: 50 * time.Millisecond,
		// A backoff much longer than the status-poll interval below, so
		// the "retrying" window is reliably observed before attempt 2.
		RetryBaseBackoff: 200 * time.Millisecond, RetryMaxBackoff: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)

	j, err := s.Submit(inlineReq())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the watchdog to kill attempt 1 and park the job, then
	// clear the injected wedge so the retry can succeed.
	waitStatus(t, s, j.ID, StatusRetrying)
	faults.Disable()

	v := waitTerminal(t, s, j.ID)
	if v.Status != StatusDone || v.Result == nil || v.Result.Verdict != "equivalent" {
		t.Fatalf("retried job: %+v (error %q)", v, v.Error)
	}
	if v.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (stalled + recovered)", v.Attempts)
	}
	kills := s.Registry().CounterL("seqverd_watchdog_kills_total", "", "reason", "stall").Value()
	if kills != 1 {
		t.Errorf("stall kills = %d, want 1", kills)
	}
	if n := counterValue(t, s, "seqverd_retries_total"); n != 1 {
		t.Errorf("retries = %d, want 1", n)
	}
}

func TestRetryBackoffShape(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 1; attempt <= 6; attempt++ {
		for i := 0; i < 20; i++ {
			d := retryBackoff(base, max, attempt)
			lo := base
			for k := 1; k < attempt && lo < max; k++ {
				lo *= 2
			}
			if lo > max {
				lo = max
			}
			hi := lo + base
			if hi > max {
				hi = max
			}
			if d < lo || d > hi {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

func TestDegradedOptions(t *testing.T) {
	def := 30 * time.Second
	cases := []struct {
		name       string
		req        JobRequest
		attempt    int
		wantEngine string
		wantBudget int64
	}{
		{"attempt 1 runs as submitted", JobRequest{Engine: "bdd", BudgetMS: 8000}, 1, "bdd", 8000},
		{"attempt 2 forces portfolio", JobRequest{Engine: "bdd", BudgetMS: 8000}, 2, "portfolio", 8000},
		{"attempt 3 halves the budget", JobRequest{BudgetMS: 8000}, 3, "portfolio", 4000},
		{"attempt 4 halves twice", JobRequest{BudgetMS: 8000}, 4, "portfolio", 2000},
		{"default budget degrades from the default", JobRequest{}, 3, "portfolio", def.Milliseconds() / 2},
		{"budget floor holds", JobRequest{BudgetMS: 300}, 4, "portfolio", 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine, budget := degradedOptions(&tc.req, tc.attempt, def)
			if engine != tc.wantEngine || budget != tc.wantBudget {
				t.Fatalf("degradedOptions(attempt %d) = (%q, %d), want (%q, %d)",
					tc.attempt, engine, budget, tc.wantEngine, tc.wantBudget)
			}
		})
	}
}

// TestRetryDuringDrainRejects: a job parked in its backoff window when
// the daemon drains finishes rejected — never wedged, never re-run.
func TestRetryDuringDrainRejects(t *testing.T) {
	installFaults(t, "seed=5,worker_panic=1")
	s, err := New(Options{
		Workers: 1, MaxAttempts: 3,
		// A long backoff guarantees the job is still parked at drain time.
		RetryBaseBackoff: 30 * time.Second, RetryMaxBackoff: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(inlineReq())
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, j.ID, StatusRetrying)

	start := time.Now()
	s.Drain(10 * time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain waited on a parked retry (%v)", elapsed)
	}
	v := s.Job(j.ID).View()
	if v.Status != StatusRejected || !strings.Contains(v.Error, "backoff") {
		t.Fatalf("parked job after drain: %+v", v)
	}
}
