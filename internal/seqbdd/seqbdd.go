// Package seqbdd implements the classical BDD-based symbolic
// product-machine traversal (Coudert-Madre / Touati et al., the paper's
// references [13, 14]) as the sequential-equivalence baseline the paper
// argues against: it works on small designs and blows up well below
// industrial sizes, which is precisely the motivation for the CBF/EDBF
// reduction. A node budget turns the blowup into a reported outcome
// instead of an unbounded computation. An inequivalent verdict carries a
// distinguishing input sequence from reset, read back from the
// breadth-first frontiers, so the baseline can serve as an oracle whose
// answers replay.
package seqbdd

import (
	"fmt"
	"slices"
	"time"

	"seqver/internal/bdd"
	"seqver/internal/netlist"
)

// Verdict is the outcome of a traversal-based check.
type Verdict int

const (
	// Blowup means the node budget was exhausted.
	Blowup Verdict = iota
	// Equivalent: outputs agree on every state reachable from the
	// given/assumed initial states.
	Equivalent
	// Inequivalent: some reachable state + input distinguishes them.
	Inequivalent
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case Inequivalent:
		return "inequivalent"
	}
	return "blowup"
}

// Result reports the traversal outcome.
type Result struct {
	Verdict    Verdict
	Iterations int     // image steps until fixpoint, a difference, or blowup
	States     float64 // reachable product states (when Equivalent)
	PeakNodes  int
	Elapsed    time.Duration
	// Inputs is the distinguishing sequence when Inequivalent, and nil
	// otherwise: Inputs[t] assigns the primary inputs by name at cycle
	// t. Applied to both circuits from the all-zero reset it makes some
	// output differ at the last cycle, and no shorter sequence does.
	Inputs []map[string]bool
}

// Options tunes the traversal.
type Options struct {
	// MaxNodes is the BDD node budget (default 500k). Exhausting it,
	// witness extraction included, yields Blowup.
	MaxNodes int
}

// CheckResetEquivalence decides reset equivalence of two circuits from
// the all-zero initial state of each, by symbolic breadth-first
// traversal of the product machine with a monolithic transition
// relation. This is the "compose the machines and traverse the state
// space" baseline of Section 2. Inputs are matched by name and outputs
// by position; an input of c2 that c1 lacks, a differing input or
// output count, or a combinational cycle is an error, not a verdict.
func CheckResetEquivalence(c1, c2 *netlist.Circuit, opt Options) (*Result, error) {
	start := time.Now()
	if opt.MaxNodes == 0 {
		opt.MaxNodes = 500_000
	}
	if len(c1.Inputs) != len(c2.Inputs) {
		return nil, fmt.Errorf("seqbdd: input counts differ")
	}
	if len(c1.Outputs) != len(c2.Outputs) {
		return nil, fmt.Errorf("seqbdd: output counts differ")
	}

	m := bdd.New(0)
	m.MaxNodes = opt.MaxNodes
	res := &Result{}
	var err error
	if bdd.CatchLimit(func() { err = traverse(m, c1, c2, res) }) != nil {
		res.Verdict = Blowup
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	res.PeakNodes = m.NumNodes()
	return res, nil
}

// machine holds one circuit's symbolic model over a shared manager.
type machine struct {
	next    []bdd.Ref // next-state function per latch
	outs    []bdd.Ref // output functions
	current []int     // current-state variable per latch
	nextVar []int     // next-state variable per latch
}

func buildMachine(m *bdd.Manager, c *netlist.Circuit, inVar map[string]int) (*machine, error) {
	mach := &machine{}
	val := make([]bdd.Ref, len(c.Nodes))
	for _, id := range c.Inputs {
		v, ok := inVar[c.Nodes[id].Name]
		if !ok {
			return nil, fmt.Errorf("seqbdd: input %q of %q has no match by name", c.Nodes[id].Name, c.Name)
		}
		val[id] = m.Var(v)
	}
	// Current and next state variables interleaved per latch.
	for _, id := range c.Latches {
		cur := m.AddVar()
		mach.current = append(mach.current, cur)
		mach.nextVar = append(mach.nextVar, m.AddVar())
		val[id] = m.Var(cur)
	}
	if err := bdd.Gates(m, c, val); err != nil {
		return nil, fmt.Errorf("seqbdd: circuit %q: %w", c.Name, err)
	}
	for i, id := range c.Latches {
		n := c.Nodes[id]
		nx := val[n.Data()]
		if n.Enable != netlist.NoEnable {
			nx = m.Ite(val[n.Enable], nx, m.Var(mach.current[i]))
		}
		mach.next = append(mach.next, nx)
	}
	for _, o := range c.Outputs {
		mach.outs = append(mach.outs, val[o.Node])
	}
	return mach, nil
}

// traverse fills res with the verdict and, on Inequivalent, the witness.
// It panics with bdd.ErrNodeLimit when the budget runs out and returns
// an error when the circuits cannot be modeled.
func traverse(m *bdd.Manager, c1, c2 *netlist.Circuit, res *Result) error {
	// Shared input variables first in the order.
	inVar := make(map[string]int, len(c1.Inputs))
	inputs := make([]int, 0, len(c1.Inputs))
	for _, id := range c1.Inputs {
		v := m.AddVar()
		inVar[c1.Nodes[id].Name] = v
		inputs = append(inputs, v)
	}
	m1, err := buildMachine(m, c1, inVar)
	if err != nil {
		return err
	}
	m2, err := buildMachine(m, c2, inVar)
	if err != nil {
		return err
	}
	cur := slices.Concat(m1.current, m2.current)
	nxt := slices.Concat(m1.nextVar, m2.nextVar)

	// Output miter: some pair of outputs differs.
	bad := bdd.False
	for i := range m1.outs {
		bad = m.Or(bad, m.Xor(m1.outs[i], m2.outs[i]))
	}

	// Transition relation as one conjunction (monolithic: the 1990s
	// baseline; AndExists interleaves it with quantification, which is
	// the stronger schedule, but the point of the experiment is the
	// cliff).
	trans := bdd.True
	for i, f := range slices.Concat(m1.next, m2.next) {
		trans = m.And(trans, m.Xnor(m.Var(nxt[i]), f))
	}
	cube := m.CubeVars(append(inputs, cur...))
	sub := make(map[int]bdd.Ref, len(cur))
	for i, v := range cur {
		sub[nxt[i]] = m.Var(v)
	}

	// Initial state: all zero for both machines. rings[t] holds the
	// states first reached at cycle t; the manager never frees nodes,
	// so keeping them costs one Ref each.
	reached := bdd.True
	for _, v := range cur {
		reached = m.And(reached, m.NVar(v))
	}
	rings := []bdd.Ref{reached}
	var hit bdd.Ref
	for {
		frontier := rings[len(rings)-1]
		if hit = m.And(frontier, bad); hit != bdd.False {
			break
		}
		res.Iterations++
		img := m.VecCompose(m.AndExists(frontier, trans, cube), sub)
		newStates := m.And(img, reached.Not())
		if newStates == bdd.False {
			res.Verdict = Equivalent
			res.States = m.SatCount(reached, len(cur))
			return nil
		}
		reached = m.Or(reached, newStates)
		rings = append(rings, newStates)
	}

	// Walk the rings back from hit, the distinguishing part of the last
	// ring: at each cycle pick a state of the previous ring and the
	// inputs that lead from it to the state already chosen. Variables an
	// assignment leaves out are don't-cares and read as false.
	seq := make([]map[string]bool, len(rings))
	assign := m.AnySat(hit)
	for t := len(rings) - 1; ; t-- {
		step := make(map[string]bool, len(c1.Inputs))
		for _, id := range c1.Inputs {
			name := c1.Nodes[id].Name
			step[name] = assign[inVar[name]]
		}
		seq[t] = step
		if t == 0 {
			break
		}
		to := bdd.True
		for i, v := range cur {
			lit := m.Var(nxt[i])
			if !assign[v] {
				lit = lit.Not()
			}
			to = m.And(to, lit)
		}
		if assign = m.AnySat(m.And(rings[t-1], trans, to)); assign == nil {
			return fmt.Errorf("seqbdd: state of cycle %d has no predecessor in ring %d", t, t-1)
		}
	}
	res.Verdict, res.Inputs = Inequivalent, seq
	return nil
}
