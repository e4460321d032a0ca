package cec

import (
	"context"
	"sync"
	"time"

	"seqver/internal/aig"
	"seqver/internal/bdd"
	"seqver/internal/obs"
)

// This file holds the deadline machinery and the per-miter engine
// portfolio: SAT raced against BDD under the miter's slice of the wall
// clock budget, in the spirit of Kuehlmann-Krohm (DAC'97) hybrid
// checkers, whose robustness comes from never betting a whole run on a
// single decision procedure.

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

// portfolioOrder is the order in which race arms are launched. Both
// engines are exact, so the verdict does not depend on it (pinned by
// TestPortfolioEngineOrderIndependence); it exists so tests can flip it.
var portfolioOrder = []string{"sat", "bdd"}

// racePortfolio proves miter i by racing a SAT proof against a BDD
// build under the miter's context. The first definitive answer (equal
// or cex) wins and cancels the loser; per-engine win/timeout counts
// land in st.Portfolio. Both arms failing yields undecided (or timeout
// once the context has fired). A panicking arm is recorded and treated
// as undecided for that engine only.
func (e *proveEnv) racePortfolio(ctx context.Context, i int, ws *workerState,
	o *OutputStats, st *Stats, mu *sync.Mutex) (status, engine string, cex map[string]bool) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type armResult struct {
		engine string
		status string
		cex    map[string]bool
	}
	results := make(chan armResult, len(portfolioOrder))
	// spanName is a literal per arm so the no-tracer path never pays a
	// string concatenation; each arm's span closes before its result is
	// sent, and the race drains both results, so arm spans always nest
	// strictly inside the miter span.
	run := func(eng, spanName string, fn func(context.Context) (string, map[string]bool)) {
		go func() {
			actx, asp := obs.Start(rctx, spanName)
			s := "panic"
			var cx map[string]bool
			defer func() {
				if r := recover(); r != nil {
					recordPanic(st, mu, e.names[i], r)
				}
				if asp != nil {
					asp.Event("arm.done", obs.S("status", s))
					asp.End()
				}
				results <- armResult{eng, s, cx}
			}()
			s, cx = fn(actx)
		}()
	}
	for _, eng := range portfolioOrder {
		switch eng {
		case "sat":
			run("sat", "sat-arm", func(actx context.Context) (string, map[string]bool) {
				return e.proveSAT(actx, ws, i, o)
			})
		case "bdd":
			run("bdd", "bdd-arm", func(actx context.Context) (string, map[string]bool) {
				return e.proveBDDMiter(actx, i)
			})
		}
	}

	status = "undecided"
	var losers []string
	for range portfolioOrder {
		r := <-results
		if r.status == "equal" || r.status == "cex" {
			if engine == "" {
				status, engine, cex = r.status, r.engine, r.cex
				cancel() // stop the loser mid-computation
			}
			continue
		}
		losers = append(losers, r.engine)
	}

	mu.Lock()
	switch engine {
	case "sat":
		st.Portfolio.SATWins++
	case "bdd":
		st.Portfolio.BDDWins++
	default:
		// No engine decided: both arms hit their limits. Count each
		// arm's failure; a loser canceled by a winner is not counted.
		st.Portfolio.Unresolved++
		for _, l := range losers {
			if l == "sat" {
				st.Portfolio.SATTimeouts++
			} else {
				st.Portfolio.BDDTimeouts++
			}
		}
		if ctx.Err() != nil {
			status = "timeout"
		}
	}
	mu.Unlock()
	return status, engine, cex
}

// proveBDDMiter decides pos1[i] == pos2[i] by building BDDs for just
// the two output cones (transitive fanin only, not the whole joint
// AIG), under the context's deadline and the configured node limit.
func (e *proveEnv) proveBDDMiter(ctx context.Context, i int) (string, map[string]bool) {
	var status string
	var cex map[string]bool
	err := buildBDD(ctx, obs.CurrentSpan(ctx), e.a, e.bddLimit, []aig.Lit{e.pos1[i], e.pos2[i]},
		func(m *bdd.Manager, edge func(aig.Lit) bdd.Ref) {
			if b1, b2 := edge(e.pos1[i]), edge(e.pos2[i]); b1 != b2 {
				status, cex = "cex", bddCex(m, e.piNames, b1, b2)
			} else {
				status = "equal"
			}
		})
	if err != nil {
		if ctx.Err() != nil {
			return "timeout", nil
		}
		return "undecided", nil
	}
	return status, cex
}
