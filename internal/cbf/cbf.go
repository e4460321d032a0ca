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
	"sort"
	"strconv"
	"strings"

	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// TimedName renders the unrolled primary-input name for input `name`
// delayed by k cycles.
func TimedName(name string, k int) string {
	if k == 0 {
		return name + "@0"
	}
	return name + "@" + strconv.Itoa(k)
}

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
func CheckAcyclic(c *netlist.Circuit) error {
	// DFS over the full graph (gate fanins + latch data edges + latch
	// enable edges).
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(c.Nodes))
	type frame struct {
		id   int
		next int
	}
	// edge returns node n's i-th dependency: its fanins, then a latch's
	// enable.
	edge := func(n *netlist.Node, i int) (int, bool) {
		if i < len(n.Fanins) {
			return n.Fanins[i], true
		}
		if i == len(n.Fanins) && n.Kind == netlist.KindLatch && n.Enable != netlist.NoEnable {
			return n.Enable, true
		}
		return 0, false
	}
	var stack []frame
	for root := range c.Nodes {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if ch, ok := edge(c.Nodes[f.id], f.next); ok {
				f.next++
				switch color[ch] {
				case white:
					color[ch] = gray
					stack = append(stack, frame{ch, 0})
				case gray:
					return fmt.Errorf("cbf: feedback path through %q; expose or decompose feedback latches first", c.Nodes[ch].Name)
				}
				continue
			}
			color[f.id] = black
			stack = stack[:len(stack)-1]
		}
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
// In the result, primary inputs are named TimedName(a, k) for each
// (input a, delay k) pair the outputs depend on, ordered by (input
// declaration order, delay). Output names are preserved.
func Unroll(c *netlist.Circuit) (*netlist.Circuit, error) {
	if !c.IsRegular() {
		return nil, fmt.Errorf("cbf: circuit %q has load-enabled latches; use edbf.Unroll", c.Name)
	}
	if err := CheckAcyclic(c); err != nil {
		return nil, err
	}
	out := netlist.New(c.Name + "_cbf")
	out.Grow(len(c.Nodes))

	// memo[d][id] is the unrolled node of node id at delay d, plus one
	// (0: not built yet); a delay's row is allocated on first use. An
	// input's entry is its timed input a@d.
	var memo [][]int32
	row := func(d int) []int32 {
		for len(memo) <= d {
			memo = append(memo, nil)
		}
		if memo[d] == nil {
			memo[d] = make([]int32, len(c.Nodes))
		}
		return memo[d]
	}
	// fins holds the fanins of the gates being built, one frame per
	// open recursion level; frames index it by offset because deeper
	// levels may reallocate it.
	var fins []int

	var rec func(id, d int) int
	rec = func(id, d int) int {
		if nid := row(d)[id]; nid != 0 {
			return int(nid) - 1
		}
		n := c.Nodes[id]
		var nid int
		switch n.Kind {
		case netlist.KindInput:
			nid = out.AddInput(TimedName(n.Name, d))
		case netlist.KindLatch:
			// s(t-d) = y(t-d-1): the latch dissolves into a delay.
			nid = rec(n.Data(), d+1)
		case netlist.KindGate:
			base := len(fins)
			fins = append(fins, n.Fanins...)
			for j, f := range n.Fanins {
				fj := rec(f, d)
				fins[base+j] = fj
			}
			name := unrolledName(n.Name, d)
			if n.Op == netlist.OpTable {
				nid = out.AddTable(name, fins[base:], n.Cover)
			} else {
				nid = out.AddGate(name, n.Op, fins[base:]...)
			}
			fins = fins[:base]
		}
		memo[d][id] = int32(nid + 1)
		return nid
	}

	for _, o := range c.Outputs {
		out.AddOutput(o.Name, rec(o.Node, 0))
	}

	// Deterministic input order: by (declaration position, delay).
	ordered := make([]int, 0, len(out.Inputs))
	for _, id := range c.Inputs {
		for _, m := range memo {
			if m != nil && m[id] != 0 {
				ordered = append(ordered, int(m[id])-1)
			}
		}
	}
	out.Inputs = ordered

	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("cbf: internal error, unrolled circuit invalid: %w", err)
	}
	return out, nil
}

// UnrollCtx is Unroll under the context's tracer: it wraps the
// construction in a "cbf.unroll" span counting the unrolled and source
// gates (their ratio is the Figure 18 replication factor) and the size
// of the timed-input window. The unrolling itself is pure and runs to
// completion.
func UnrollCtx(ctx context.Context, c *netlist.Circuit) (*netlist.Circuit, error) {
	_, sp := obs.Start1(ctx, "cbf.unroll", obs.S("circuit", c.Name))
	out, err := Unroll(c)
	if sp != nil {
		if err == nil {
			sp.Count("cbf.gates", int64(out.NumGates()))
			sp.Count("cbf.source_gates", int64(c.NumGates()))
			sp.Count("cbf.timed_inputs", int64(len(out.Inputs)))
		}
		sp.End()
	}
	return out, err
}

func unrolledName(base string, d int) string {
	if base == "" {
		return ""
	}
	return base + "@" + strconv.Itoa(d)
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
