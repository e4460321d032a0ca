// Package cbf implements Clocked Boolean Functions (Section 4.1 and 5.1
// of Ranjan et al.): the canonical combinational representation of an
// acyclic sequential circuit with regular latches.
//
// The CBF of an output expresses its value at time t as an ordinary
// Boolean function of primary-input values at times t, t-1, ..., t-d
// (d = sequential depth). Treating each input-instant a(t-k) as an
// independent variable turns sequential equivalence (the paper's exact
// 3-valued equivalence, Definition 1) into combinational equivalence
// (Theorem 5.1).
//
// Unroll materializes the CBF as a combinational circuit by cone
// replication, exactly the construction of Figure 18: a fresh primary
// input named "a@k" stands for a(t-k), and the logic between latch layers
// is replicated once per distinct delay at which it is needed.
package cbf

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"seqver/internal/feedback"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/unroll"
)

// ParseTimedName splits an unrolled input name back into (base, delay).
func ParseTimedName(timed string) (string, int, error) {
	i := strings.LastIndexByte(timed, '@')
	if i < 0 {
		return "", 0, fmt.Errorf("cbf: %q is not a timed name", timed)
	}
	k, err := strconv.Atoi(timed[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("cbf: bad delay in %q: %v", timed, err)
	}
	return timed[:i], k, nil
}

// CheckAcyclic verifies the circuit has no feedback path through latches:
// the dependency graph including latch data edges must be acyclic. This is
// the precondition for CBF existence (Section 5).
func CheckAcyclic(c *netlist.Circuit) error { return CheckCut(feedback.Whole(c)) }

// CheckCut is CheckAcyclic over a circuit read through a cut, whose
// exposed latches break the feedback paths through them. A cut is
// checked once however often it is asked.
func CheckCut(x *feedback.Cut) error {
	if err := x.CheckAcyclic(); err != nil {
		return fmt.Errorf("cbf: %w", err)
	}
	return nil
}

// SequentialDepth returns the topological sequential depth: the maximum
// number of latches along any path from a primary input (or constant) to
// a primary output. Per Definition 4 the true sequential depth can be
// lower when dependencies are false; see FunctionalDepth for the
// exact (BDD-based) refinement.
func SequentialDepth(c *netlist.Circuit) (int, error) {
	if err := CheckAcyclic(c); err != nil {
		return 0, err
	}
	// Longest path in latch-count metric, computed by memoized DFS from
	// outputs toward inputs.
	depth := make([]int, len(c.Nodes))
	done := make([]bool, len(c.Nodes))
	var rec func(id int) int
	rec = func(id int) int {
		if done[id] {
			return depth[id]
		}
		done[id] = true // safe: acyclicity established above
		n := c.Nodes[id]
		d := 0
		switch n.Kind {
		case netlist.KindInput:
			d = 0
		case netlist.KindLatch:
			d = rec(n.Data()) + 1
			if n.Enable != netlist.NoEnable {
				if e := rec(n.Enable) + 1; e > d {
					d = e
				}
			}
		case netlist.KindGate:
			for _, f := range n.Fanins {
				if fd := rec(f); fd > d {
					d = fd
				}
			}
		}
		depth[id] = d
		return d
	}
	max := 0
	for _, o := range c.Outputs {
		if d := rec(o.Node); d > max {
			max = d
		}
	}
	return max, nil
}

// Unroll computes the CBF of every primary output and materializes it as
// a combinational circuit (the Figure 7 recursion + Figure 18 cone
// replication). The circuit must be acyclic and contain only regular
// latches; use the edbf package for load-enabled latches.
//
// In the result, primary inputs are named "a@k" for each (input a,
// delay k) pair the outputs depend on, ordered by (input
// declaration order, delay). Output names are preserved.
func Unroll(c *netlist.Circuit) (*netlist.Circuit, error) {
	return UnrollCtx(context.Background(), c)
}

// UnrollCtx is Unroll under the context's tracer: it wraps the
// construction in a "cbf.unroll" span counting the unrolled and source
// gates (their ratio is the Figure 18 replication factor) and the size
// of the timed-input window. The unrolling itself is pure and runs to
// completion.
func UnrollCtx(ctx context.Context, c *netlist.Circuit) (*netlist.Circuit, error) {
	_, sp := obs.Start1(ctx, "cbf.unroll", obs.S("circuit", c.Name))
	defer sp.End()
	r, err := recordSpan(sp, feedback.Whole(c))
	if err != nil {
		return nil, err
	}
	out, err := r.Circuit(c.Name + "_cbf")
	if err != nil {
		return nil, fmt.Errorf("cbf: %w", err)
	}
	return out, nil
}

// RecordCtx is UnrollCtx without the netlist, over a circuit read
// through a cut: it returns the unrolling's record, which the checker
// builds straight into its joint AIG. Over feedback.Whole(c),
// r.Circuit(c.Name+"_cbf") is the netlist Unroll returns; over any cut
// it is the netlist Unroll returns for the circuit the cut reads as.
// The "cbf.unroll" span and its counts are UnrollCtx's, with the cut's
// source gates.
func RecordCtx(ctx context.Context, x *feedback.Cut) (*unroll.Record, error) {
	_, sp := obs.Start1(ctx, "cbf.unroll", obs.S("circuit", x.Source().Name))
	defer sp.End()
	return recordSpan(sp, x)
}

// recordSpan records x's unrolling and counts it on sp.
func recordSpan(sp *obs.Span, x *feedback.Cut) (*unroll.Record, error) {
	r, err := record(x)
	if sp != nil && err == nil {
		sp.Count("cbf.gates", int64(r.NumGates()))
		sp.Count("cbf.source_gates", int64(x.NumGates()))
		sp.Count("cbf.timed_inputs", int64(r.NumInputs()))
	}
	return r, err
}

// record runs the Figure 7 recursion from every output, recording one
// instance per (gate, delay) and (input, delay) pair it reaches; an
// exposed latch is an input.
func record(x *feedback.Cut) (*unroll.Record, error) {
	if !x.IsRegular() {
		return nil, fmt.Errorf("cbf: circuit %q has load-enabled latches; use edbf.Unroll", x.Source().Name)
	}
	if err := CheckCut(x); err != nil {
		return nil, err
	}
	r := unroll.New(x, '@')
	nodes := x.NumNodes()

	// memo[d][id] is the instance of node id at delay d, plus one (0:
	// not recorded yet); a delay's row is allocated on first use. A
	// latch's entry is its data's instance one delay further back.
	var memo [][]int32
	row := func(d int) []int32 {
		for len(memo) <= d {
			memo = append(memo, nil)
		}
		if memo[d] == nil {
			memo[d] = make([]int32, nodes)
		}
		return memo[d]
	}
	// fins holds the fanins of the gates being recorded, one frame per
	// open recursion level; frames index it by offset because deeper
	// levels may reallocate it.
	var fins []int32

	var rec func(id, d int) int32
	rec = func(id, d int) int32 {
		if i := row(d)[id]; i != 0 {
			return i - 1
		}
		n := x.Node(id)
		var i int32
		switch x.Kind(id) {
		case netlist.KindInput:
			i = r.Input(id, d)
		case netlist.KindLatch:
			// s(t-d) = y(t-d-1): the latch dissolves into a delay.
			i = rec(n.Data(), d+1)
		case netlist.KindGate:
			base := len(fins)
			fins = slices.Grow(fins, len(n.Fanins))[:base+len(n.Fanins)]
			for j, f := range n.Fanins {
				fj := rec(f, d) // may grow fins: index it after the call
				fins[base+j] = fj
			}
			i = r.Gate(id, d, fins[base:])
			fins = fins[:base]
		}
		memo[d][id] = i + 1
		return i
	}

	for _, o := range x.Outputs {
		r.Output(rec(o.Node, 0))
	}
	return r, nil
}

// Depths returns, per primary input name, the set of delays at which the
// unrolled circuit samples it (sorted ascending). Useful for reporting
// replication factors (Section 7.4 notes cone replication can blow up the
// combinational circuit; Depths quantifies it).
func Depths(unrolled *netlist.Circuit) (map[string][]int, error) {
	out := make(map[string][]int)
	for _, id := range unrolled.Inputs {
		base, k, err := ParseTimedName(unrolled.Nodes[id].Name)
		if err != nil {
			return nil, err
		}
		out[base] = append(out[base], k)
	}
	for _, ks := range out {
		sort.Ints(ks)
	}
	return out, nil
}

// InputWindow converts an input sequence for the sequential circuit into
// one assignment for the unrolled circuit: the unrolled input a@k takes
// the sequential input a's value at seq[len(seq)-1-k]. The sequence must
// be at least depth+1 long. Used by tests to cross-validate Theorem 5.1
// against concrete simulation.
func InputWindow(c *netlist.Circuit, unrolled *netlist.Circuit, seq [][]bool) ([]bool, error) {
	posOf := make(map[string]int)
	for i, id := range c.Inputs {
		posOf[c.Nodes[id].Name] = i
	}
	t := len(seq) - 1
	out := make([]bool, len(unrolled.Inputs))
	for i, id := range unrolled.Inputs {
		base, k, err := ParseTimedName(unrolled.Nodes[id].Name)
		if err != nil {
			return nil, err
		}
		pos, ok := posOf[base]
		if !ok {
			return nil, fmt.Errorf("cbf: unrolled input %q has no source input", base)
		}
		if t-k < 0 {
			return nil, fmt.Errorf("cbf: sequence too short: need value %d cycles back", k)
		}
		out[i] = seq[t-k][pos]
	}
	return out, nil
}
