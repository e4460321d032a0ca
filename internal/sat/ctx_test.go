package sat

import (
	"context"
	"testing"
	"time"
)

// TestSolveCtxPreCanceled pins the entry check: an already-canceled
// context yields Canceled without any search.
func TestSolveCtxPreCanceled(t *testing.T) {
	s := pigeonhole(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := s.SolveCtx(ctx); st != Canceled {
		t.Fatalf("pre-canceled SolveCtx = %v, want Canceled", st)
	}
	// The solver must remain usable after a canceled call.
	if st := s.Solve(); st != Unsat {
		t.Fatalf("Solve after cancellation = %v, want Unsat", st)
	}
}

// TestSolveCtxDeadline pins the conflict-boundary polling: a deadline
// interrupts a hard proof promptly (PHP(9+1,9) takes far longer than
// the 10ms budget, and far longer than the assertion bound).
func TestSolveCtxDeadline(t *testing.T) {
	s := pigeonhole(9)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	st := s.SolveCtx(ctx)
	elapsed := time.Since(start)
	if st != Canceled {
		t.Fatalf("SolveCtx under 10ms deadline = %v, want Canceled (after %v)", st, elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancellation latency %v, want well under 500ms", elapsed)
	}
}

// TestSolveCtxBackgroundMatchesSolve pins that a never-firing context
// changes nothing: same verdicts as the plain entry points.
func TestSolveCtxBackgroundMatchesSolve(t *testing.T) {
	s := pigeonhole(4)
	if st := s.SolveCtx(context.Background()); st != Unsat {
		t.Fatalf("SolveCtx(Background) = %v, want Unsat", st)
	}
	if got := Canceled.String(); got != "CANCELED" {
		t.Fatalf("Canceled.String() = %q", got)
	}
}

// lateCtx is a context whose deadline has passed but whose Err is still
// nil: the state a deadline context is in between its deadline and the
// runtime running its timer, which a CPU-bound goroutine at
// GOMAXPROCS=1 can stretch over many milliseconds.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Unix(1, 0), true }

// TestSolveCtxSeesPassedDeadline pins that the budget poll reads the
// clock against the deadline instead of waiting for Err to flip.
func TestSolveCtxSeesPassedDeadline(t *testing.T) {
	ctx := lateCtx{context.Background()}
	if ctx.Err() != nil || !Expired(ctx) {
		t.Fatalf("lateCtx: Err %v, Expired %v; want nil, true", ctx.Err(), Expired(ctx))
	}
	s := pigeonhole(6)
	if st := s.SolveCtx(ctx); st != Canceled {
		t.Fatalf("SolveCtx past the deadline = %v, want Canceled", st)
	}
	if st := s.SolveMaskCtx(ctx, []int{0, 1}); st != Canceled {
		t.Fatalf("SolveMaskCtx past the deadline = %v, want Canceled", st)
	}
	if Expired(nil) || Expired(context.Background()) {
		t.Fatal("a context without a deadline expired")
	}
}
