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
// the unate re-modeling ("unate.model") and feedback-vertex-set
// selection ("feedback.break") phases. The circuit it returns is the
// one the verify path reads through a cut without building it.
func PrepareCtx(ctx context.Context, a *netlist.Circuit, opt PrepareOptions) (*PrepareResult, error) {
	ctx, sp := obs.Start1(ctx, "prepare", obs.S("circuit", a.Name))
	defer sp.End()
	res, work, ids, err := prepare(ctx, a, opt)
	if err != nil {
		return nil, err
	}
	x, err := feedback.NewCut(work, ids)
	if err != nil {
		return nil, err
	}
	if res.Circuit, err = x.Circuit(); err != nil {
		return nil, err
	}
	return res, nil
}

// prepare re-models unate self-loops when asked and selects the
// latches to expose. It returns the circuit the selection applies to
// (a itself unless re-modeled) and the selected latch IDs in it; res
// lacks only its Circuit.
func prepare(ctx context.Context, a *netlist.Circuit, opt PrepareOptions) (res *PrepareResult, work *netlist.Circuit, ids []int, err error) {
	res = &PrepareResult{TotalLatches: len(a.Latches)}
	work = a
	if opt.UnateAware {
		if work, res.Modeled, err = modelUnate(ctx, a); err != nil {
			return nil, nil, nil, err
		}
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
	if ids, err = feedback.SelectCtx(ctx, work, prot); err != nil {
		return nil, nil, nil, err
	}
	for _, id := range ids {
		res.Exposed = append(res.Exposed, work.Nodes[id].Name)
	}
	return res, work, ids, nil
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
	return verifyCuts(ctx, feedback.Whole(c1), feedback.Whole(c2), opt)
}

// verifyCuts unrolls and checks two circuits read through their cuts
// under a "verify" span.
func verifyCuts(ctx context.Context, x1, x2 *feedback.Cut, opt Options) (*Report, error) {
	start := time.Now()
	ctx, sp := obs.Start(ctx, "verify")
	defer sp.End()
	u, err := unrollCuts(ctx, x1, x2, opt.Rewrite)
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
	return unrollCuts(ctx, feedback.Whole(c1), feedback.Whole(c2), rewrite)
}

// unrollCuts is UnrollAcyclicCtx over two circuits read through their
// cuts: each walk treats its cut's exposed latches as inputs.
func unrollCuts(ctx context.Context, x1, x2 *feedback.Cut, rewrite bool) (*Unrolled, error) {
	u := &Unrolled{}
	var r1, r2 *unroll.Record
	var err error
	if x1.IsRegular() && x2.IsRegular() {
		u.Method = "cbf"
		if r1, err = cbf.RecordCtx(ctx, x1); err != nil {
			return nil, err
		}
		if r2, err = cbf.RecordCtx(ctx, x2); err != nil {
			return nil, err
		}
		u.Depth = r1.MaxKey() // cbf.SequentialDepth of side 1, without its walk
		obs.CurrentSpan(ctx).Count("cbf.depth", int64(u.Depth))
	} else {
		u.Method = "edbf"
		u.Conservative = true
		cx := edbf.NewCtx()
		cx.Rewrite = rewrite
		if r1, err = cx.RecordCtx(ctx, x1); err != nil {
			return nil, err
		}
		if r2, err = cx.RecordCtx(ctx, x2); err != nil {
			return nil, err
		}
	}
	if u.miter, err = cec.BuildMiterCtx(ctx, r1, r2); err != nil {
		return nil, err
	}
	u.UnrolledGates = [2]int{r1.NumGates(), r2.NumGates()}
	return u, nil
}

// matchCut exposes the named latches in c, mirroring an exposure
// already applied to the other side of a comparison, and checks that
// the cut is acyclic.
func matchCut(c *netlist.Circuit, exposed []string) (*feedback.Cut, error) {
	ids := make([]int, 0, len(exposed))
	for _, name := range exposed {
		id := c.Lookup(name)
		if id < 0 || c.Nodes[id].Kind != netlist.KindLatch {
			return nil, fmt.Errorf("core: latch %q exposed in first circuit is missing in second", name)
		}
		ids = append(ids, id)
	}
	x, err := feedback.NewCut(c, ids)
	if err != nil {
		return nil, err
	}
	if err := cbf.CheckCut(x); err != nil {
		return nil, fmt.Errorf("core: second circuit still cyclic after matching exposure: %w", err)
	}
	return x, nil
}

// MatchExposure builds the circuit matchCut reads: c with the named
// latches exposed, checked acyclic.
func MatchExposure(c *netlist.Circuit, exposed []string) (*netlist.Circuit, error) {
	x, err := matchCut(c, exposed)
	if err != nil {
		return nil, err
	}
	return x.Circuit()
}

// cutPair is the constraint-satisfaction step of a verification pair,
// under a "prepare" span: select the first circuit's feedback latches
// (after unate re-modeling, if asked), expose the same latch names in
// the second, and check that the second is then acyclic. Neither
// circuit is copied: each is read through its cut, the first's
// acyclic by construction and checked by its walk, the second's
// checked here.
func cutPair(ctx context.Context, c1, c2 *netlist.Circuit, prep PrepareOptions) (x1, x2 *feedback.Cut, err error) {
	ctx, sp := obs.Start1(ctx, "prepare", obs.S("circuit", c1.Name))
	defer sp.End()
	res, work, ids, err := prepare(ctx, c1, prep)
	if err != nil {
		return nil, nil, err
	}
	if x1, err = feedback.NewCut(work, ids); err != nil {
		return nil, nil, err
	}
	if x2, err = matchCut(c2, res.Exposed); err != nil {
		return nil, nil, err
	}
	return x1, x2, nil
}

// UnrollPairCtx runs the full reduction for two arbitrary sequential
// circuits: select a feedback vertex set of the first, mirror it onto
// the second by latch name, and unroll both through those cuts. The
// returned Unrolled is the cacheable verification problem, the one
// UnrollAcyclicCtx returns for PrepareCtx's circuit and MatchExposure's.
func UnrollPairCtx(ctx context.Context, c1, c2 *netlist.Circuit, prep PrepareOptions, rewrite bool) (*Unrolled, error) {
	x1, x2, err := cutPair(ctx, c1, c2, prep)
	if err != nil {
		return nil, err
	}
	return unrollCuts(ctx, x1, x2, rewrite)
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
// VerifyAcyclicCtx for the budget semantics). Its verdict is
// VerifyAcyclicCtx's on PrepareCtx's circuit and MatchExposure's, but
// it builds neither: both circuits are read through their cuts.
func VerifyCtx(ctx context.Context, c1, c2 *netlist.Circuit, prep PrepareOptions, opt Options) (*Report, error) {
	x1, x2, err := cutPair(ctx, c1, c2, prep)
	if err != nil {
		return nil, err
	}
	return verifyCuts(ctx, x1, x2, opt)
}
