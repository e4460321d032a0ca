package cec

import (
	"context"
	"sync"
	"time"
)

// budgeter divides the remaining wall-clock budget adaptively across
// the remaining output miters: each miter's slice is remaining/pending
// at the moment it starts, so early finishers donate their unused time
// to the miters still queued and the last pending miter may spend
// everything that is left. All methods are nil-safe (a nil budgeter
// means "no deadline").
type budgeter struct {
	deadline time.Time
	mu       sync.Mutex
	pending  int
}

// newBudgeter returns a budgeter for the context's deadline, or nil
// when the context has none (unbudgeted runs skip all slicing).
func newBudgeter(ctx context.Context, pending int) *budgeter {
	d, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	return &budgeter{deadline: d, pending: pending}
}

func (b *budgeter) setPending(n int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.pending = n
	b.mu.Unlock()
}

// slice returns the wall-clock deadline for the next miter — an equal
// share of whatever budget remains, never past the overall deadline —
// plus the pending-miter count the grant was computed from, for
// callers that record the decision.
func (b *budgeter) slice() (time.Time, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.pending
	if p < 1 {
		p = 1
	}
	rem := time.Until(b.deadline)
	if rem <= 0 {
		return b.deadline, p
	}
	return time.Now().Add(rem / time.Duration(p)), p
}

// finish marks one miter as no longer pending.
func (b *budgeter) finish() {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.pending > 0 {
		b.pending--
	}
	b.mu.Unlock()
}
