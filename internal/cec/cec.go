// Package cec is the combinational equivalence checker closing the
// paper's flow (Section 7.4): it decides whether two combinational
// circuits — in our flow, the CBF/EDBF unrollings H and J of Figure 19 —
// compute the same outputs, aligning primary inputs and outputs by name.
//
// The engine follows the architecture of the tools the paper cites
// (Matsunaga DAC'96; Kuehlmann-Krohm DAC'97): both circuits are built
// into one structurally hashed AIG (structural similarity collapses for
// free), random simulation filters inequivalences and groups candidate
// internal equivalences, SAT-sweeping (fraig) merges internal points to
// keep miters shallow, and a CDCL SAT solver discharges each output
// miter. That pipeline is the default "hybrid" engine and the only SAT
// path. A pure-BDD engine, "bdd", is the independent reference.
//
// # Budget semantics
//
// Every entry point has a context-aware variant (CheckCtx), and
// Options.Budget adds a wall-clock bound divided adaptively across the
// remaining output miters. Resource exhaustion — deadline, context
// cancellation, SAT conflict budget, BDD node limit, or even a panic in
// one miter's proof — degrades that miter to undecided instead of
// hanging or crashing the batch; the overall verdict is then the
// structured Undecided with Result.UndecidedOutputs naming what was not
// resolved. Verdicts are budget-dependent but never wrong: a larger
// budget can turn Undecided into Equivalent/Inequivalent, no budget can
// flip a decided answer.
package cec

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"seqver/internal/aig"
	"seqver/internal/bdd"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Verdict is the outcome of an equivalence check.
type Verdict int

const (
	// Undecided means resource limits were hit before a proof either way.
	Undecided Verdict = iota
	// Equivalent means all outputs were proven equal.
	Equivalent
	// Inequivalent means a counterexample was found.
	Inequivalent
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case Inequivalent:
		return "inequivalent"
	}
	return "undecided"
}

// Options tunes the engines.
type Options struct {
	// Engine selects the decision procedure: "hybrid" (default:
	// simulation, an eager fraig sweep, then incremental SAT probes on a
	// warm per-worker solver) or "bdd" (one monolithic BDD build, the
	// independent reference). Any other name is rejected.
	Engine string
	// MaxConflicts bounds each SAT proof (0: generous default).
	MaxConflicts int64
	// BDDLimit bounds the BDD engine's node count (0: default 2M).
	BDDLimit int
	Seed     int64
	// Budget, when positive, bounds the whole Check call by wall clock.
	// The remaining budget is divided adaptively across the remaining
	// output miters (each undecided output gets remaining/pending), and
	// an exhausted budget yields the structured Undecided verdict with
	// Result.UndecidedOutputs — never a hang or an error. Verdicts are
	// budget-dependent but never wrong.
	Budget time.Duration
	// Workers sets the engine parallelism: output miters are proved
	// concurrently (one SAT solver and CNF map per worker over the
	// shared read-only AIG) and stage-1 simulation rounds run as
	// parallel batches; the fraig sweep between them is sequential.
	// 0 selects runtime.GOMAXPROCS(0); 1 forces the serial path.
	// Verdicts do not depend on the worker count.
	Workers int
	// SimRounds is the number of stage-1 random-simulation rounds
	// (0: default 8; negative: skip stage 1).
	SimRounds int
	// SimWordsPerRound is the number of 64-pattern words simulated per
	// stage-1 round (0: default 4, i.e. 256 patterns per round).
	SimWordsPerRound int
}

// Result reports the verdict with diagnostics.
type Result struct {
	Verdict        Verdict
	FailingOutput  string          // set when Inequivalent
	Counterexample map[string]bool // input name -> value, when Inequivalent
	// UndecidedOutputs lists, on an Undecided verdict, the output names
	// whose miters were not resolved (budget/conflict-limit exhausted,
	// context canceled, or proof panicked), sorted.
	UndecidedOutputs []string
	Outputs          int // outputs compared
	SATCalls         int
	Elapsed          time.Duration
	Stats            *Stats // per-stage engine accounting, always populated
}

// Check decides name-aligned combinational equivalence of c1 and c2.
// The circuits must be latch-free and have identical output name sets;
// input sets may differ (a circuit ignores inputs outside its support).
func Check(c1, c2 *netlist.Circuit, opt Options) (*Result, error) {
	return CheckCtx(context.Background(), c1, c2, opt)
}

// CheckCtx is Check under cooperative cancellation: cancellation or
// deadline expiry degrades unresolved miters to undecided (see
// Result.UndecidedOutputs) rather than returning an error. Options.Budget
// composes with the context — whichever deadline is tighter wins.
// The joint AIG is built inside the check's "cec" span and budget; a
// caller that also needs the miter's hash builds it once with
// NewMiterCtx and calls Miter.CheckCtx instead.
func CheckCtx(ctx context.Context, c1, c2 *netlist.Circuit, opt Options) (*Result, error) {
	start := time.Now()
	if err := checkContract(c1, c2); err != nil {
		return nil, err
	}
	return check(ctx, start, nil, c1, c2, opt)
}

// CheckCtx decides the miter, as the package's CheckCtx decides the
// circuits it was built from; the budget starts now, the build having
// been paid for already.
func (m *Miter) CheckCtx(ctx context.Context, opt Options) (*Result, error) {
	return check(ctx, time.Now(), m, nil, nil, opt)
}

// check is the one path behind both CheckCtx functions: it validates
// the engine, opens the "cec" span, builds the miter of c1 and c2 when
// m is nil, and runs the engine.
func check(ctx context.Context, start time.Time, m *Miter, c1, c2 *netlist.Circuit, opt Options) (*Result, error) {
	engine := opt.Engine
	if engine == "" {
		engine = "hybrid"
	}
	if !ValidEngine(engine) {
		return nil, fmt.Errorf("cec: unknown engine %q (want %s)", opt.Engine, EngineNames)
	}
	ctx, sp := obs.Start(ctx, "cec", obs.S("engine", engine))
	defer sp.End()
	if m == nil {
		var err error
		if m, err = buildMiter(ctx, circuitSide{c1}, circuitSide{c2}); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Outputs: len(m.names),
		Stats:   &Stats{Engine: engine, Outputs: len(m.names), Workers: 1},
	}
	defer func() {
		res.Elapsed = time.Since(start)
		res.Stats.ElapsedNS = res.Elapsed.Nanoseconds()
		sp.Count("undecided.outputs", int64(len(res.UndecidedOutputs)))
	}()
	if opt.Budget > 0 {
		res.Stats.BudgetNS = opt.Budget.Nanoseconds()
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opt.Budget))
		defer cancel()
	}

	// The engines overwrite the output edges; the miter stays intact.
	pos1, pos2 := slices.Clone(m.pos1), slices.Clone(m.pos2)
	if engine == "bdd" {
		return checkBDD(ctx, m.a, m.piNames, pos1, pos2, m.names, opt, res)
	}
	return checkSAT(ctx, m.a, m.piNames, pos1, pos2, m.names, opt, res)
}

// EngineNames lists the values Options.Engine accepts, for error
// messages and flag help.
const EngineNames = "hybrid or bdd"

// ValidEngine reports whether name selects an engine; the empty string
// selects the default, hybrid.
func ValidEngine(name string) bool {
	switch name {
	case "", "hybrid", "bdd":
		return true
	}
	return false
}

func sameOutputNames(n1, n2 []string) error {
	s1 := slices.Clone(n1)
	s2 := slices.Clone(n2)
	sort.Strings(s1)
	sort.Strings(s2)
	if len(s1) != len(s2) {
		return fmt.Errorf("cec: output counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			return fmt.Errorf("cec: output sets differ at %q vs %q", s1[i], s2[i])
		}
	}
	return nil
}

// Miter is the joint AIG of a comparison: both circuits built into one
// structurally hashed AIG over the union of their input names, with
// each output's two edges. It is what MiterHash digests and what the
// engines decide, so a caller that needs both builds it once.
type Miter struct {
	piNames    []string
	a          *aig.AIG
	names      []string  // output names, sorted
	pos1, pos2 []aig.Lit // per names[i], each side's edge
}

// Side is one combinational circuit of a comparison as the joint AIG
// sees it: named inputs, named outputs and the logic between them. A
// netlist is one; an unrolling's record (unroll.Record) is another,
// which builds its replicated cones into the AIG without a netlist.
type Side interface {
	// InputNames lists the side's input names in order.
	InputNames() []string
	// OutputNames lists its output names in declaration order.
	OutputNames() []string
	// NumFanins is its summed gate fanin count, which sizes the AIG.
	NumFanins() int
	// Build adds the side's logic to a over in (one edge per input, in
	// InputNames order) and returns one edge per output, in
	// OutputNames order.
	Build(a *aig.AIG, in []aig.Lit) ([]aig.Lit, error)
}

// NewMiterCtx builds the joint AIG of c1 and c2 under an "aig.build"
// span. The circuits must meet Check's contract: latch-free, with
// identical output name sets.
func NewMiterCtx(ctx context.Context, c1, c2 *netlist.Circuit) (*Miter, error) {
	if err := checkContract(c1, c2); err != nil {
		return nil, err
	}
	return buildMiter(ctx, circuitSide{c1}, circuitSide{c2})
}

// BuildMiterCtx builds the joint AIG of two sides under an "aig.build"
// span. The sides must have identical output name sets. For two
// netlists it is the miter NewMiterCtx builds, node for node.
func BuildMiterCtx(ctx context.Context, s1, s2 Side) (*Miter, error) {
	if err := sameOutputNames(s1.OutputNames(), s2.OutputNames()); err != nil {
		return nil, err
	}
	return buildMiter(ctx, s1, s2)
}

// Hash returns the miter's content address (see MiterHash).
func (m *Miter) Hash() string { return m.a.StructuralHash() }

// AIG returns the joint AIG: the union's inputs, then both sides' AND
// nodes, and per sorted output name o the outputs "l$o" and "r$o". The
// caller must not modify it.
func (m *Miter) AIG() *aig.AIG { return m.a }

func checkContract(c1, c2 *netlist.Circuit) error {
	if len(c1.Latches) > 0 || len(c2.Latches) > 0 {
		return fmt.Errorf("cec: circuits must be combinational (unroll first)")
	}
	return sameOutputNames(c1.OutputNames(), c2.OutputNames())
}

func buildMiter(ctx context.Context, s1, s2 Side) (*Miter, error) {
	_, bsp := obs.Start(ctx, "aig.build")
	m, err := jointAIG(s1, s2)
	if bsp != nil && err == nil {
		// A gauge, not a count: perfbench's layer run reads it as one.
		bsp.Gauge("aig.ands", int64(m.a.NumAnds()))
		bsp.Count("aig.inputs", int64(len(m.piNames)))
	}
	bsp.End()
	return m, err
}

// jointAIG builds both sides into one AIG over the union of input
// names (the first side's, then the second's new ones) and records,
// per sorted output name, each side's edge.
func jointAIG(s1, s2 Side) (*Miter, error) {
	in1, in2 := s1.InputNames(), s2.InputNames()
	seen := make(map[string]int, len(in1)+len(in2))
	union := make([]string, 0, len(in1))
	for _, names := range [][]string{in1, in2} {
		for _, n := range names {
			if _, ok := seen[n]; !ok {
				seen[n] = len(union)
				union = append(union, n)
			}
		}
	}
	a := aig.New(union)
	// About one AND node per fanin: an n-input gate is n-1 ANDs.
	a.Grow(s1.NumFanins() + s2.NumFanins())
	build := func(s Side, names []string) ([]aig.Lit, error) {
		in := make([]aig.Lit, len(names))
		for i, n := range names {
			in[i] = a.PI(seen[n])
		}
		return s.Build(a, in)
	}
	out1, err := build(s1, in1)
	if err != nil {
		return nil, err
	}
	out2, err := build(s2, in2)
	if err != nil {
		return nil, err
	}
	names1 := s1.OutputNames()
	names := slices.Clone(names1)
	sort.Strings(names)
	m := &Miter{piNames: union, a: a, names: names}
	m.pos1 = outputEdges(names1, out1, m.names)
	m.pos2 = outputEdges(s2.OutputNames(), out2, m.names)
	// Output names "l$<name>" and "r$<name>", sharing one string.
	var b []byte
	for _, n := range m.names {
		b = append(append(b, "l$"...), n...)
		b = append(append(b, "r$"...), n...)
	}
	all := string(b)
	for i, n := range m.names {
		w := len(n) + 2
		a.AddPO(all[:w], m.pos1[i])
		a.AddPO(all[w:2*w], m.pos2[i])
		all = all[2*w:]
	}
	return m, nil
}

// outputEdges returns the edge driving each of names, given a side's
// output names in declaration order and their edges. A name the side
// declares twice takes its last declaration.
func outputEdges(declared []string, edges []aig.Lit, names []string) []aig.Lit {
	byName := make(map[string]aig.Lit, len(declared))
	for i, n := range declared {
		byName[n] = edges[i]
	}
	out := make([]aig.Lit, len(names))
	for i, n := range names {
		out[i] = byName[n]
	}
	return out
}

// circuitSide is a latch-free netlist as a Side.
type circuitSide struct{ *netlist.Circuit }

func (c circuitSide) NumFanins() int {
	n := 0
	for _, nd := range c.Nodes {
		n += len(nd.Fanins)
	}
	return n
}

func (c circuitSide) Build(a *aig.AIG, in []aig.Lit) ([]aig.Lit, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lit := make([]aig.Lit, len(c.Nodes))
	for i, id := range c.Inputs {
		lit[id] = in[i]
	}
	var fins []aig.Lit // reused: Gate does not keep it
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind != netlist.KindGate {
			continue
		}
		fins = fins[:0]
		for _, f := range n.Fanins {
			fins = append(fins, lit[f])
		}
		lit[id] = a.Gate(n, fins)
	}
	edges := make([]aig.Lit, len(c.Outputs))
	for i, o := range c.Outputs {
		edges[i] = lit[o.Node]
	}
	return edges, nil
}

// checkBDD is the monolithic reference engine: one BDD per output
// cone, compared output by output.
func checkBDD(ctx context.Context, a *aig.AIG, piNames []string, pos1, pos2 []aig.Lit,
	names []string, opt Options, res *Result) (*Result, error) {
	_, bsp := obs.Start(ctx, "bdd.build")
	defer bsp.End()
	roots := append(append([]aig.Lit(nil), pos1...), pos2...)
	err := buildBDD(ctx, bsp, a, opt.bddLimit(), roots, func(m *bdd.Manager, edge func(aig.Lit) bdd.Ref) {
		for i := range pos1 {
			if b1, b2 := edge(pos1[i]), edge(pos2[i]); b1 != b2 {
				cex := bddCex(m, piNames, b1, b2)
				res.Verdict, res.FailingOutput, res.Counterexample = Inequivalent, names[i], cex
				return
			}
		}
		res.Verdict = Equivalent
	})
	if err != nil {
		// Node limit or cancellation, in the build or in a
		// counterexample's difference function: the monolithic check
		// decides nothing, so every output is unresolved.
		res.Verdict = Undecided
		res.UndecidedOutputs = append([]string(nil), names...)
	}
	return res, nil
}

func (o Options) bddLimit() int {
	if o.BDDLimit > 0 {
		return o.BDDLimit
	}
	return 2_000_000
}

// buildBDD builds BDDs for the transitive fanin of roots under the
// context and a node limit, then runs decide on the finished edges.
// BDD variables are global PI indices, so an AnySat over them maps
// directly onto a named counterexample. The build and decide both run
// inside bdd.CatchLimit: a limit or deadline hit anywhere, a
// counterexample's XOR included, comes back as the error instead of a
// panic. Node-count samples land on sp as bdd.nodes gauges.
func buildBDD(ctx context.Context, sp *obs.Span, a *aig.AIG, limit int, roots []aig.Lit,
	decide func(m *bdd.Manager, edge func(aig.Lit) bdd.Ref)) error {
	need := make([]bool, a.NumNodes())
	var stack []uint32
	push := func(n uint32) {
		if !need[n] {
			need[n] = true
			stack = append(stack, n)
		}
	}
	for _, r := range roots {
		push(r.Node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if a.IsConst(n) || a.IsPI(n) {
			continue
		}
		f0, f1 := a.Fanins(n)
		push(f0.Node())
		push(f1.Node())
	}

	m := bdd.New(a.NumPIs())
	m.MaxNodes = limit
	m.SetContext(ctx)
	if sp != nil {
		// Node-count samples ride the manager's existing poll boundary
		// (see bdd.Manager.Progress), throttled to trace scale.
		thr := obs.NewThrottle(50 * time.Millisecond)
		m.Progress = func(nodes int) {
			if thr.Ok() {
				sp.Gauge("bdd.nodes", int64(nodes))
			}
		}
	}
	funcs := make([]bdd.Ref, a.NumNodes())
	funcs[0] = bdd.False
	for pi := 0; pi < a.NumPIs(); pi++ {
		funcs[pi+1] = m.Var(pi)
	}
	edge := func(l aig.Lit) bdd.Ref {
		f := funcs[l.Node()]
		if l.Compl() {
			return f.Not()
		}
		return f
	}
	return bdd.CatchLimit(func() {
		// AIG node indices are topological (fanins precede fanouts),
		// so one ascending sweep over the marked cone suffices.
		for n := uint32(a.NumPIs() + 1); n < uint32(a.NumNodes()); n++ {
			if !need[n] {
				continue
			}
			f0, f1 := a.Fanins(n)
			funcs[n] = m.And(edge(f0), edge(f1))
		}
		decide(m, edge)
	})
}

// bddCex extracts a counterexample from the difference of two unequal
// output functions.
func bddCex(m *bdd.Manager, piNames []string, b1, b2 bdd.Ref) map[string]bool {
	diffSat := m.AnySat(m.Xor(b1, b2))
	return cexAssign(piNames, func(j int) bool { return diffSat[j] })
}
