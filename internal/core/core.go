// Package core ties the substrates into the paper's verification
// methodology (Figure 19): make a sequential circuit satisfy the
// feedback constraint by unate re-modeling and/or latch exposure
// (Section 6, 7.1), reduce both the golden and the optimized circuit to
// combinational form via CBF or EDBF unrolling (Sections 4–5), and
// discharge the resulting problem with the combinational equivalence
// checker (Section 7.4).
package core

import (
	"context"
	"fmt"
	"time"

	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/edbf"
	"seqver/internal/feedback"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/unate"
	"seqver/internal/unroll"
)

// PrepareOptions controls the constraint-satisfaction step.
type PrepareOptions struct {
	// UnateAware first re-models self-loop latches whose next-state
	// function is positive unate in the latch variable as load-enabled
	// latches (Lemma 6.1), which removes them from the feedback graph
	// and reduces the number of exposed latches (the refinement the
	// paper predicts in Section 8.1, point 5). Off by default to match
	// the paper's experimental setup (Section 8, step 1).
	UnateAware bool
	// Protected latch names are exposed only when unavoidable (the
	// paper notes designers pin FSM state bits regardless; protection
	// inverts that: latches the optimizer may not lose to exposure).
	Protected map[string]bool
}

// PrepareResult is the modified circuit B of the experimental flow.
type PrepareResult struct {
	// Circuit satisfies the acyclicity constraint: all feedback paths
	// are broken by exposure (and, in unate-aware mode, re-modeling).
	Circuit *netlist.Circuit
	// Exposed lists the names of latches turned into pseudo-ports.
	Exposed []string
	// Modeled lists the names of latches re-modeled per Lemma 6.1.
	Modeled []string
	// TotalLatches is the latch count of the input circuit.
	TotalLatches int
}

// Prepare produces the constraint-satisfying circuit B from A: it finds
// a minimal feedback vertex set of the latch dependency graph and
// exposes it (optionally after unate re-modeling). The returned circuit
// is acyclic and ready for retiming/synthesis and CBF/EDBF unrolling.
func Prepare(a *netlist.Circuit, opt PrepareOptions) (*PrepareResult, error) {
	return PrepareCtx(context.Background(), a, opt)
}

// PrepareCtx is Prepare under the context's tracer: a "prepare" span
// wraps the whole constraint-satisfaction step, with child spans for
// the unate re-modeling ("unate.model") and feedback-breaking
// ("feedback.break") phases.
func PrepareCtx(ctx context.Context, a *netlist.Circuit, opt PrepareOptions) (*PrepareResult, error) {
	ctx, sp := obs.Start1(ctx, "prepare", obs.S("circuit", a.Name))
	defer sp.End()
	res := &PrepareResult{TotalLatches: len(a.Latches)}
	work := a
	if opt.UnateAware {
		modeled, names, err := modelUnate(ctx, a)
		if err != nil {
			return nil, err
		}
		work = modeled
		res.Modeled = names
	}
	var prot map[int]bool
	if opt.Protected != nil {
		prot = make(map[int]bool)
		for _, id := range work.Latches {
			if opt.Protected[work.Nodes[id].Name] {
				prot[id] = true
			}
		}
	}
	b, exposed, err := feedback.BreakFeedbackCtx(ctx, work, prot)
	if err != nil {
		return nil, err
	}
	for _, id := range exposed {
		res.Exposed = append(res.Exposed, work.Nodes[id].Name)
	}
	res.Circuit = netlist.Sweep(b, false)
	return res, nil
}

func modelUnate(ctx context.Context, a *netlist.Circuit) (*netlist.Circuit, []string, error) {
	out, modeled, err := unate.ModelFeedbackCtx(ctx, a)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(modeled))
	for _, id := range modeled {
		names = append(names, a.Nodes[id].Name)
	}
	return netlist.Sweep(out, false), names, nil
}

// Options controls Verify.
type Options struct {
	// Rewrite enables the paper's Eq. 5 event rewriting in the EDBF
	// path, trading hardware-exactness for fewer false negatives.
	Rewrite bool
	// CEC tunes the combinational engine.
	CEC cec.Options
}

// Report is the outcome of a verification run.
type Report struct {
	// Method is "cbf" for regular-latch circuits, "edbf" when
	// load-enabled latches forced the event calculus.
	Method string
	// Depth is the (topological) sequential depth of the first circuit.
	Depth int
	// UnrolledGates counts the gates of the two unrolled circuits (the
	// Figure 18 replication cost).
	UnrolledGates [2]int
	// Result is the combinational checker's verdict.
	Result *cec.Result
	// Conservative is set when the method can produce false negatives
	// (EDBF; Section 5.2): an Inequivalent verdict is then "not proven
	// equivalent" rather than a definite counterexample.
	Conservative bool
	Elapsed      time.Duration
}

// VerifyAcyclic checks the paper's exact 3-valued sequential equivalence
// of two acyclic circuits (both must already satisfy the feedback
// constraint — run Prepare first, and optimize only the prepared
// circuit). Circuits with only regular latches take the CBF path
// (complete, Theorem 5.1); circuits with load-enabled latches take the
// EDBF path (sound for retiming+synthesis pairs, else conservative,
// Theorem 5.2).
func VerifyAcyclic(c1, c2 *netlist.Circuit, opt Options) (*Report, error) {
	return VerifyAcyclicCtx(context.Background(), c1, c2, opt)
}

// VerifyAcyclicCtx is VerifyAcyclic under cooperative cancellation: the
// context (and opt.CEC.Budget) bound the equivalence check's wall
// clock, and exhaustion degrades to an Undecided verdict naming the
// unresolved outputs rather than an error (see cec.CheckCtx). The
// budget covers the check alone; the unrolling before it is not
// budgeted.
func VerifyAcyclicCtx(ctx context.Context, c1, c2 *netlist.Circuit, opt Options) (*Report, error) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, "verify")
	defer sp.End()
	u, err := UnrollAcyclicCtx(ctx, c1, c2, opt.Rewrite)
	if err != nil {
		return nil, err
	}
	res, err := u.CheckCtx(ctx, opt.CEC)
	if err != nil {
		return nil, err
	}
	rep := u.report()
	rep.Result = res
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Unrolled is the combinational reduction of a verification pair: the
// joint AIG of the CBF or EDBF unrollings of both circuits, ready for
// the equivalence checker. It is the seam between "what problem is
// this" and "decide it" — the verification daemon hashes the joint AIG
// (MiterHash) to key its result cache before spending any solver time,
// and then decides that very AIG (CheckCtx).
type Unrolled struct {
	// Method is "cbf" (regular latches, complete) or "edbf"
	// (load-enabled latches, conservative).
	Method string
	// Depth is the sequential depth of the first circuit (CBF only).
	Depth int
	// Conservative is set on the EDBF path: an Inequivalent verdict may
	// be a false negative.
	Conservative bool
	// UnrolledGates counts the gates of the two unrollings (the
	// Figure 18 replication cost).
	UnrolledGates [2]int

	miter *cec.Miter // the joint AIG of both unrollings
}

// report seeds a Report with the unrolling's metadata.
func (u *Unrolled) report() *Report {
	return &Report{Method: u.Method, Depth: u.Depth,
		UnrolledGates: u.UnrolledGates, Conservative: u.Conservative}
}

// MiterHash returns the reduction's content address: cec.MiterHash of
// the two unrolled netlists, which the joint AIG equals node for node.
func (u *Unrolled) MiterHash() string { return u.miter.Hash() }

// CheckCtx discharges the reduction with the combinational checker on
// the joint AIG; the budget in opt covers the check alone.
func (u *Unrolled) CheckCtx(ctx context.Context, opt cec.Options) (*cec.Result, error) {
	return u.miter.CheckCtx(ctx, opt)
}

// UnrollAcyclicCtx reduces an acyclic pair to combinational form
// without deciding it: the CBF path for regular-latch circuits
// (Theorem 5.1, exact) or the EDBF path when load-enabled latches are
// present (Theorem 5.2, conservative). Both circuits must already
// satisfy the feedback constraint and have the same output names. Each
// side's walk records its cone replication, and both records are built
// straight into one joint AIG under an "aig.build" span.
func UnrollAcyclicCtx(ctx context.Context, c1, c2 *netlist.Circuit, rewrite bool) (*Unrolled, error) {
	u := &Unrolled{}
	var r1, r2 *unroll.Record
	var err error
	if c1.IsRegular() && c2.IsRegular() {
		u.Method = "cbf"
		if r1, err = cbf.RecordCtx(ctx, c1); err != nil {
			return nil, err
		}
		if r2, err = cbf.RecordCtx(ctx, c2); err != nil {
			return nil, err
		}
		u.Depth = r1.MaxKey() // cbf.SequentialDepth(c1), without its walk
		obs.CurrentSpan(ctx).Count("cbf.depth", int64(u.Depth))
	} else {
		u.Method = "edbf"
		u.Conservative = true
		cx := edbf.NewCtx()
		cx.Rewrite = rewrite
		if r1, err = cx.RecordCtx(ctx, c1); err != nil {
			return nil, err
		}
		if r2, err = cx.RecordCtx(ctx, c2); err != nil {
			return nil, err
		}
	}
	if u.miter, err = cec.BuildMiterCtx(ctx, r1, r2); err != nil {
		return nil, err
	}
	u.UnrolledGates = [2]int{r1.NumGates(), r2.NumGates()}
	return u, nil
}

// MatchExposure exposes the named latches in c, mirroring an exposure
// already applied to the other side of a comparison, and verifies the
// result is acyclic. It is the second half of Verify's preparation.
func MatchExposure(c *netlist.Circuit, exposed []string) (*netlist.Circuit, error) {
	var ids []int
	for _, name := range exposed {
		id := c.Lookup(name)
		if id < 0 || c.Nodes[id].Kind != netlist.KindLatch {
			return nil, fmt.Errorf("core: latch %q exposed in first circuit is missing in second", name)
		}
		ids = append(ids, id)
	}
	b, err := feedback.Expose(c, ids)
	if err != nil {
		return nil, err
	}
	b = netlist.Sweep(b, false)
	if err := cbf.CheckAcyclic(b); err != nil {
		return nil, fmt.Errorf("core: second circuit still cyclic after matching exposure: %w", err)
	}
	return b, nil
}

// UnrollPairCtx runs the full reduction for two arbitrary sequential
// circuits: prepare the first (expose a feedback vertex set), mirror
// the exposure onto the second by latch name, and unroll both. The
// returned Unrolled is the cacheable verification problem; the
// PrepareResult reports what was exposed.
func UnrollPairCtx(ctx context.Context, c1, c2 *netlist.Circuit, prep PrepareOptions, rewrite bool) (*Unrolled, *PrepareResult, error) {
	p1, err := PrepareCtx(ctx, c1, prep)
	if err != nil {
		return nil, nil, err
	}
	b2, err := MatchExposure(c2, p1.Exposed)
	if err != nil {
		return nil, nil, err
	}
	u, err := UnrollAcyclicCtx(ctx, p1.Circuit, b2, rewrite)
	if err != nil {
		return nil, nil, err
	}
	return u, p1, nil
}

// Verify checks two arbitrary sequential circuits: it prepares the first
// (exposing a feedback vertex set), exposes the same latch names in the
// second, and runs VerifyAcyclic. Intended for pairs that share latch
// names on the feedback structure (e.g. a design before and after
// combinational-only optimization); pairs produced by the full
// retime-and-resynthesize flow should instead be handled by preparing
// once and optimizing the prepared circuit.
func Verify(c1, c2 *netlist.Circuit, prep PrepareOptions, opt Options) (*Report, error) {
	return VerifyCtx(context.Background(), c1, c2, prep, opt)
}

// VerifyCtx is Verify under cooperative cancellation (see
// VerifyAcyclicCtx for the budget semantics).
func VerifyCtx(ctx context.Context, c1, c2 *netlist.Circuit, prep PrepareOptions, opt Options) (*Report, error) {
	p1, err := PrepareCtx(ctx, c1, prep)
	if err != nil {
		return nil, err
	}
	// Expose the same names in c2.
	b2, err := MatchExposure(c2, p1.Exposed)
	if err != nil {
		return nil, err
	}
	return VerifyAcyclicCtx(ctx, p1.Circuit, b2, opt)
}
