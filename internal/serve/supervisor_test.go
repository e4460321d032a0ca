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

// TestWatchdogMemCeilingKill: with a 1-byte ceiling any heap in use is
// over it, so the watchdog kills the wedged running attempt with reason
// mem, and the kill counter's mem series counts it.
func TestWatchdogMemCeilingKill(t *testing.T) {
	installFaults(t, "seed=1,solver_stall=1")
	s, err := New(Options{
		Workers: 1, MaxAttempts: 1, StallTimeout: -1, MemCeilingBytes: 1,
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
	if v.Status != StatusQuarantined || !strings.Contains(v.Error, "watchdog kill: "+killMem+":") {
		t.Fatalf("over-ceiling job: status %s, error %q; want quarantined by a mem kill", v.Status, v.Error)
	}
	if n := s.Registry().CounterL("seqverd_watchdog_kills_total", "", "reason", killMem).Value(); n != 1 {
		t.Errorf("mem kills = %d, want 1", n)
	}
	if n := s.Registry().CounterL("seqverd_watchdog_kills_total", "", "reason", killStall).Value(); n != 0 {
		t.Errorf("stall kills = %d, want 0 with the stall watchdog off", n)
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

// TestDegradedOptions pins the retry ladder's budget per attempt
// (TestRetryKeepsEngine pins that no attempt changes the engine).
func TestDegradedOptions(t *testing.T) {
	def := 30 * time.Second
	cases := []struct {
		name       string
		req        JobRequest
		attempt    int
		wantBudget int64
	}{
		{"attempt 1 runs as submitted", JobRequest{Engine: "bdd", BudgetMS: 8000}, 1, 8000},
		{"attempt 2 reruns as submitted", JobRequest{Engine: "bdd", BudgetMS: 8000}, 2, 8000},
		{"attempt 3 halves the budget", JobRequest{BudgetMS: 8000}, 3, 4000},
		{"attempt 4 halves twice", JobRequest{BudgetMS: 8000}, 4, 2000},
		{"default budget degrades from the default", JobRequest{}, 3, def.Milliseconds() / 2},
		{"budget floor holds", JobRequest{BudgetMS: 300}, 4, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if budget := retryBudget(&tc.req, tc.attempt, def); budget != tc.wantBudget {
				t.Fatalf("retryBudget(attempt %d) = %d, want %d", tc.attempt, budget, tc.wantBudget)
			}
		})
	}
}

// TestRetryKeepsEngine: a job whose first attempt crashes is retried
// on the engine it was submitted with — the ladder only ever shrinks
// the budget.
func TestRetryKeepsEngine(t *testing.T) {
	for _, engine := range []string{"hybrid", "bdd"} {
		t.Run(engine, func(t *testing.T) {
			installFaults(t, "seed=9,worker_panic=1")
			s, err := New(Options{
				Workers: 1, MaxAttempts: 3,
				RetryBaseBackoff: 200 * time.Millisecond, RetryMaxBackoff: 500 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain(10 * time.Second)
			req := inlineReq()
			req.Engine = engine
			j, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			waitStatus(t, s, j.ID, StatusRetrying)
			faults.Disable()
			v := waitTerminal(t, s, j.ID)
			if v.Status != StatusDone || v.Attempts != 2 || v.Result == nil || v.Result.Stats == nil {
				t.Fatalf("retried job: %+v (error %q)", v, v.Error)
			}
			if got := v.Result.Stats.Engine; got != engine {
				t.Fatalf("attempt 2 ran engine %q, submitted %q", got, engine)
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
