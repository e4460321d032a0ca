// Package seqver is a from-scratch Go implementation of the verification
// methodology of Ranjan, Singhal, Somenzi and Brayton, "Using
// Combinational Verification for Sequential Circuits" (UCB/ERL M97/77;
// DATE 1999): sequential equivalence checking of circuits optimized by
// arbitrary sequences of retiming and combinational synthesis, reduced
// to combinational equivalence through Clocked Boolean Functions (CBF)
// and Event-Driven Boolean Functions (EDBF).
//
// The package is a facade over the implementation packages:
//
//   - Circuit model and BLIF I/O       (internal/netlist)
//   - CBF / EDBF unrolling             (internal/cbf, internal/edbf)
//   - Feedback analysis and exposure   (internal/feedback, internal/unate)
//   - Retiming                         (internal/retime)
//   - Synthesis and technology mapping (internal/synth)
//   - Combinational equivalence        (internal/cec; BDD+SAT+AIG below)
//   - Symbolic traversal baseline      (internal/seqbdd)
//
// Quick start:
//
//	a, _ := seqver.ParseBLIF(r)               // golden design
//	prep, _ := seqver.Prepare(a, seqver.PrepareOptions{})
//	rt, _ := seqver.MinPeriodRetime(prep.Circuit)
//	opt, _ := seqver.Synthesize(rt.Circuit)
//	rep, _ := seqver.VerifyAcyclic(prep.Circuit, opt, seqver.Options{})
//	fmt.Println(rep.Result.Verdict)           // equivalent
package seqver

import (
	"context"
	"io"

	"seqver/internal/aig"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/feedback"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/retime"
	"seqver/internal/seqbdd"
	"seqver/internal/synth"
	"seqver/internal/unate"
)

// Version identifies the library/tool build; CLIs stamp it into JSON
// envelopes so archived results can be tied to the code that made them.
const Version = "0.6.0"

// Circuit is the sequential circuit model: combinational gates plus
// single-phase edge-triggered latches with optional load enables.
type Circuit = netlist.Circuit

// Node, Op, Kind, Cube re-export the circuit building blocks.
type (
	Node = netlist.Node
	Op   = netlist.Op
	Kind = netlist.Kind
	Cube = netlist.Cube
)

// Gate operators.
const (
	OpConst0 = netlist.OpConst0
	OpConst1 = netlist.OpConst1
	OpBuf    = netlist.OpBuf
	OpNot    = netlist.OpNot
	OpAnd    = netlist.OpAnd
	OpOr     = netlist.OpOr
	OpNand   = netlist.OpNand
	OpNor    = netlist.OpNor
	OpXor    = netlist.OpXor
	OpXnor   = netlist.OpXnor
	OpMux    = netlist.OpMux
	OpTable  = netlist.OpTable
)

// NoEnable marks a regular latch.
const NoEnable = netlist.NoEnable

// NewCircuit returns an empty circuit with the given model name.
func NewCircuit(name string) *Circuit { return netlist.New(name) }

// ParseBLIF reads a circuit in the BLIF dialect (see internal/netlist
// for the supported constructs, including the "le" load-enable latch
// extension).
func ParseBLIF(r io.Reader) (*Circuit, error) { return netlist.ParseBLIF(r) }

// WriteBLIF writes the circuit in the same dialect.
func WriteBLIF(w io.Writer, c *Circuit) error { return netlist.WriteBLIF(w, c) }

// Preparation (Figure 19 step 1: A -> B).

// PrepareOptions configures feedback-constraint satisfaction.
type PrepareOptions = core.PrepareOptions

// PrepareResult is the modified circuit with its exposure report.
type PrepareResult = core.PrepareResult

// Prepare breaks every latch feedback path by minimal exposure
// (optionally re-modeling positive-unate self-loops as load-enabled
// latches first), yielding a circuit on which CBF/EDBF verification and
// unconstrained retiming+synthesis are valid.
func Prepare(c *Circuit, opt PrepareOptions) (*PrepareResult, error) {
	return core.Prepare(c, opt)
}

// PrepareCtx is Prepare under the context's tracer: the unate
// re-modeling and feedback-breaking phases appear as spans when a
// Tracer is attached with WithTracer (see the Tracing section below).
func PrepareCtx(ctx context.Context, c *Circuit, opt PrepareOptions) (*PrepareResult, error) {
	return core.PrepareCtx(ctx, c, opt)
}

// Verification (Figure 19 steps H, J, and the equivalence check).

// Options configures verification.
type Options = core.Options

// Report is a verification outcome.
type Report = core.Report

// CECOptions tunes the combinational engine ("hybrid" or "bdd")
// including the wall-clock Budget.
type CECOptions = cec.Options

// CECResult is the combinational checker's verdict and diagnostics.
type CECResult = cec.Result

// CECStats is the engine's per-stage observability record (simulation,
// fraig, SAT worker pool); see cec.Stats.
type CECStats = cec.Stats

// Verdicts.
const (
	Equivalent   = cec.Equivalent
	Inequivalent = cec.Inequivalent
	Undecided    = cec.Undecided
)

// VerifyAcyclic checks exact 3-valued sequential equivalence of two
// feedback-free circuits via CBF (regular latches; complete by
// Theorem 5.1) or EDBF (load-enabled latches; conservative,
// Theorem 5.2).
func VerifyAcyclic(c1, c2 *Circuit, opt Options) (*Report, error) {
	return core.VerifyAcyclic(c1, c2, opt)
}

// VerifyAcyclicCtx is VerifyAcyclic under cooperative cancellation: the
// context and Options.CEC.Budget bound the equivalence check's wall
// clock (whichever deadline is tighter wins), and exhaustion degrades
// the verdict to Undecided with the unresolved outputs listed in
// Report.Result.UndecidedOutputs — never a hang or an error. The budget
// covers the check alone, not the unrolling into its joint AIG.
func VerifyAcyclicCtx(ctx context.Context, c1, c2 *Circuit, opt Options) (*Report, error) {
	return core.VerifyAcyclicCtx(ctx, c1, c2, opt)
}

// Verify prepares the first circuit, mirrors the exposure onto the
// second by latch name, and runs VerifyAcyclic.
func Verify(c1, c2 *Circuit, prep PrepareOptions, opt Options) (*Report, error) {
	return core.Verify(c1, c2, prep, opt)
}

// VerifyCtx is Verify under cooperative cancellation (see
// VerifyAcyclicCtx for the budget semantics).
func VerifyCtx(ctx context.Context, c1, c2 *Circuit, prep PrepareOptions, opt Options) (*Report, error) {
	return core.VerifyCtx(ctx, c1, c2, prep, opt)
}

// MiterHash returns the canonical content address of a combinational
// comparison: a structural hash of the joint miter AIG, invariant to
// node numbering, declaration order, and input naming differences that
// don't change the logic. Structurally identical pairs — however their
// BLIF was written — hash equal. The seqverd daemon keys its result
// cache with it; only decided verdicts may be cached under it (an
// undecided verdict is budget-dependent, not a property of the miter).
func MiterHash(c1, c2 *Circuit) (string, error) { return cec.MiterHash(c1, c2) }

// CheckCombinational exposes the raw combinational equivalence checker
// (name-aligned inputs/outputs).
func CheckCombinational(c1, c2 *Circuit, opt CECOptions) (*CECResult, error) {
	return cec.Check(c1, c2, opt)
}

// CheckCombinationalCtx is CheckCombinational under cooperative
// cancellation and the Options.Budget wall-clock bound.
func CheckCombinationalCtx(ctx context.Context, c1, c2 *Circuit, opt CECOptions) (*CECResult, error) {
	return cec.CheckCtx(ctx, c1, c2, opt)
}

// Replay is a concrete distinguishing input sequence reconstructed from
// a CBF counterexample.
type Replay = core.Replay

// ReplayCounterexample converts an Inequivalent verdict's counterexample
// (CBF path) into an input sequence and the cycle/output where the two
// circuits diverge, validated by simulation.
func ReplayCounterexample(c1, c2 *Circuit, cex map[string]bool) (*Replay, error) {
	return core.ReplayCounterexample(c1, c2, cex)
}

// Unrolling primitives (Figures 7, 8, 18).

// UnrollCBF materializes the Clocked Boolean Function of an acyclic
// regular-latch circuit as a combinational circuit with inputs "a@k".
func UnrollCBF(c *Circuit) (*Circuit, error) { return cbf.Unroll(c) }

// SequentialDepth returns the (topological) sequential depth.
func SequentialDepth(c *Circuit) (int, error) { return cbf.SequentialDepth(c) }

// EDBFContext aligns event identities across the two unrollings of a
// comparison.
type EDBFContext = edbf.Ctx

// NewEDBFContext returns a fresh shared event context.
func NewEDBFContext() *EDBFContext { return edbf.NewCtx() }

// Optimization substrates (Figure 19 steps B -> C/E).

// RetimeResult reports a retiming outcome.
type RetimeResult = retime.Result

// MinPeriodRetime retimes to the minimum feasible clock period
// (Leiserson-Saxe FEAS, unit delay model).
func MinPeriodRetime(c *Circuit) (*RetimeResult, error) { return retime.MinPeriod(c) }

// MinAreaRetime minimizes the (fanout-shared) latch count subject to a
// period bound.
func MinAreaRetime(c *Circuit, period int) (*RetimeResult, error) {
	return retime.ConstrainedMinArea(c, period)
}

// ClockPeriod reports the current unit-delay clock period.
func ClockPeriod(c *Circuit) (int, error) { return retime.Period(c) }

// MinPeriodRetimeMulti retimes a circuit with multiple latch classes
// (per-class Legl-style passes until the period stops improving). Class
// enables must be named primary inputs or constants.
func MinPeriodRetimeMulti(c *Circuit) (*RetimeResult, error) {
	return retime.MinPeriodMulti(c)
}

// MinAreaRetimeMulti minimizes latch count across classes subject to a
// period bound.
func MinAreaRetimeMulti(c *Circuit, period int) (*RetimeResult, error) {
	return retime.ConstrainedMinAreaMulti(c, period)
}

// SynthOptions configures the combinational-synthesis script.
type SynthOptions = synth.Options

// Synthesize runs the script.delay substitute (sweep + SAT-sweeping +
// balancing) with latch positions fixed.
func Synthesize(c *Circuit) (*Circuit, error) {
	return synth.Optimize(c, synth.DefaultScript())
}

// SynthesizeWith runs the script with explicit options.
func SynthesizeWith(c *Circuit, opt SynthOptions) (*Circuit, error) {
	return synth.Optimize(c, opt)
}

// MapReport summarizes a technology-mapped circuit (INV/NAND2/NOR2
// library, unit delay, fanout <= 4).
type MapReport = synth.MapReport

// TechMap maps the combinational logic onto the reduced cell library.
func TechMap(c *Circuit) (*Circuit, MapReport, error) { return synth.TechMap(c) }

// SimplifyTables runs two-level (espresso-style) minimization on every
// table gate's cover.
func SimplifyTables(c *Circuit) *Circuit { return synth.SimplifyTables(c) }

// WriteVerilog emits a mapped circuit as structural gate-level Verilog.
func WriteVerilog(w io.Writer, c *Circuit) error { return synth.WriteVerilog(w, c) }

// WriteAiger emits a combinational circuit (e.g. a CBF unrolling) in
// ASCII AIGER format; ParseAiger reads one back.
func WriteAiger(w io.Writer, c *Circuit) error {
	a, err := aig.FromCircuit(c)
	if err != nil {
		return err
	}
	return aig.WriteAiger(w, aig.Compact(a))
}

// ParseAiger reads an ASCII AIGER file as a combinational circuit.
func ParseAiger(r io.Reader) (*Circuit, error) {
	a, err := aig.ParseAiger(r)
	if err != nil {
		return nil, err
	}
	return a.ToCircuit("aiger"), nil
}

// Feedback analysis (Sections 6, 7.1).

// ExposeLatches cuts the named latches into pseudo PI/PO pairs.
func ExposeLatches(c *Circuit, names []string) (*Circuit, error) {
	ids := make([]int, 0, len(names))
	for _, n := range names {
		id := c.Lookup(n)
		if id < 0 {
			return nil, &MissingLatchError{Name: n}
		}
		ids = append(ids, id)
	}
	return feedback.Expose(c, ids)
}

// MissingLatchError reports an unknown latch name passed to
// ExposeLatches.
type MissingLatchError struct{ Name string }

func (e *MissingLatchError) Error() string {
	return "seqver: unknown latch " + e.Name
}

// SelfLoopReport classifies a feedback latch (Section 6).
type SelfLoopReport = unate.SelfLoopReport

// AnalyzeSelfLoops reports, per feedback latch, whether the Lemma 6.1
// enabled-latch re-modeling applies.
func AnalyzeSelfLoops(c *Circuit) ([]SelfLoopReport, error) {
	return unate.AnalyzeSelfLoops(c)
}

// Tracing (zero-dependency observability; see internal/obs and
// DESIGN.md §10). A Tracer rides the context passed to the *Ctx entry
// points; without one every instrumentation site costs a single nil
// check and allocates nothing.

// Tracer fans span/counter events out to its sinks.
type Tracer = obs.Tracer

// TraceSink consumes trace events (JSONL stream, Chrome trace,
// progress renderer, in-memory summary).
type TraceSink = obs.Sink

// NewTracer returns a tracer emitting to the given sinks.
func NewTracer(sinks ...TraceSink) *Tracer { return obs.New(sinks...) }

// WithTracer attaches a tracer to a context; pass the result to
// VerifyCtx / VerifyAcyclicCtx / CheckCombinationalCtx / PrepareCtx.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.WithTracer(ctx, t)
}

// NewJSONLTraceSink streams one JSON event object per line to w.
func NewJSONLTraceSink(w io.Writer) TraceSink { return obs.NewJSONLSink(w) }

// NewChromeTraceSink buffers events and, on Close, writes a Chrome
// trace_event JSON file loadable in chrome://tracing or Perfetto.
func NewChromeTraceSink(w io.WriteCloser) TraceSink { return obs.NewChromeSink(w) }

// NewProgressTraceSink renders coarse phase progress and throttled
// metric rates as human-readable lines (intended for stderr).
func NewProgressTraceSink(w io.Writer) TraceSink { return obs.NewProgressSink(w) }

// Baseline (Section 2).

// TraversalOptions bounds the BDD reachability baseline.
type TraversalOptions = seqbdd.Options

// TraversalResult is the baseline's outcome. On Inequivalent its Inputs
// is a shortest distinguishing sequence from reset, one map from input
// name to value per cycle.
type TraversalResult = seqbdd.Result

// CheckByTraversal runs the classical product-machine symbolic
// reachability check (reset equivalence from the all-zero states) — the
// baseline whose capacity cliff motivates the paper. Inputs are matched
// by name: an input of c2 that c1 lacks is an error.
func CheckByTraversal(c1, c2 *Circuit, opt TraversalOptions) (*TraversalResult, error) {
	return seqbdd.CheckResetEquivalence(c1, c2, opt)
}
