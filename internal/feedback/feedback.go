// Package feedback implements the Section 7.1 circuit-graph analysis of
// Ranjan et al.: build the latch dependency graph, find its strongly
// connected components, select a (heuristically minimal) feedback vertex
// set — the NP-complete problem the paper attacks with a modified
// Lee–Reddy partial-scan heuristic — and expose the selected latches so
// the remaining circuit satisfies the acyclicity constraint required for
// CBF/EDBF construction (Figure 15).
//
// Exposing a latch treats its output as a pseudo primary input and its
// next-state function as a pseudo primary output; during retiming the
// exposed latch is pinned in place (it has become part of the interface).
package feedback

import (
	"context"
	"fmt"
	"sort"

	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Graph is the latch dependency graph: vertex i corresponds to
// LatchID[i]; Adj[i] lists vertices j such that latch j's next-state
// (data or enable) cone combinationally reads latch i.
type Graph struct {
	LatchID []int
	Adj     [][]int
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.LatchID) }

// LatchGraph builds the latch dependency graph of c.
func LatchGraph(c *netlist.Circuit) *Graph {
	idx := make(map[int]int, len(c.Latches))
	for i, id := range c.Latches {
		idx[id] = i
	}
	g := &Graph{
		LatchID: append([]int(nil), c.Latches...),
		Adj:     make([][]int, len(c.Latches)),
	}
	// For each node, the set of latch vertices its combinational cone
	// reads, memoized globally (latch outputs are leaves).
	reach := make(map[int][]int)
	var deps func(id int) []int
	deps = func(id int) []int {
		if d, ok := reach[id]; ok {
			return d
		}
		n := c.Nodes[id]
		var d []int
		switch n.Kind {
		case netlist.KindInput:
			// no latch deps
		case netlist.KindLatch:
			d = []int{idx[id]}
		case netlist.KindGate:
			set := make(map[int]bool)
			for _, f := range n.Fanins {
				for _, v := range deps(f) {
					set[v] = true
				}
			}
			d = make([]int, 0, len(set))
			for v := range set {
				d = append(d, v)
			}
			sort.Ints(d)
		}
		reach[id] = d
		return d
	}
	for j, id := range c.Latches {
		n := c.Nodes[id]
		set := make(map[int]bool)
		for _, v := range deps(n.Data()) {
			set[v] = true
		}
		if n.Enable != netlist.NoEnable {
			for _, v := range deps(n.Enable) {
				set[v] = true
			}
		}
		srcs := make([]int, 0, len(set))
		for v := range set {
			srcs = append(srcs, v)
		}
		sort.Ints(srcs)
		for _, i := range srcs {
			g.Adj[i] = append(g.Adj[i], j)
		}
	}
	return g
}

// SCCs returns the strongly connected components of g (Tarjan), each as
// a sorted vertex list, in reverse topological order of the condensation.
func SCCs(g *Graph) [][]int {
	n := g.NumVertices()
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	var comps [][]int
	counter := 0

	type frame struct {
		v, ei int
	}
	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{root, 0}}
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei < len(g.Adj[v]) {
				w := g.Adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				comps = append(comps, comp)
			}
		}
	}
	for v := 0; v < n; v++ {
		if index[v] == -1 {
			dfs(v)
		}
	}
	return comps
}

// isAcyclicWithout reports whether g minus the removed vertices has no
// cycle (self-loops count as cycles).
func isAcyclicWithout(g *Graph, removed []bool) bool {
	n := g.NumVertices()
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n)
	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if removed[root] || color[root] != white {
			continue
		}
		frames := []frame{{root, 0}}
		color[root] = gray
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g.Adj[f.v]) {
				w := g.Adj[f.v][f.ei]
				f.ei++
				if removed[w] {
					continue
				}
				switch color[w] {
				case white:
					color[w] = gray
					frames = append(frames, frame{w, 0})
				case gray:
					return false
				}
				continue
			}
			color[f.v] = black
			frames = frames[:len(frames)-1]
		}
	}
	return true
}

// MFVS selects a feedback vertex set using the modified Lee–Reddy-style
// heuristic: mandatory self-loop vertices first, then iterative graph
// reduction plus greedy max-(indegree×outdegree) selection inside cyclic
// components, followed by a redundancy-elimination pass that keeps the
// set inclusion-minimal. `protected` vertices (may be nil) are never
// selected if avoidable: they are considered only when no unprotected
// vertex can break the remaining cycles.
func MFVS(g *Graph, protected []bool) []int {
	n := g.NumVertices()
	removed := make([]bool, n)
	var selected []int
	if protected == nil {
		protected = make([]bool, n)
	}

	// Self-loop vertices are mandatory (their own edge is a cycle).
	for v := 0; v < n; v++ {
		for _, w := range g.Adj[v] {
			if w == v {
				removed[v] = true
				selected = append(selected, v)
				break
			}
		}
	}

	indeg := make([]int, n)
	outdeg := make([]int, n)
	recompute := func() {
		for i := range indeg {
			indeg[i], outdeg[i] = 0, 0
		}
		for v := 0; v < n; v++ {
			if removed[v] {
				continue
			}
			for _, w := range g.Adj[v] {
				if !removed[w] {
					outdeg[v]++
					indeg[w]++
				}
			}
		}
	}

	for !isAcyclicWithout(g, removed) {
		recompute()
		// Reduction: vertices with no in- or out-degree cannot be on a
		// cycle; exclude them from candidacy by scoring. Then greedily
		// take the best-scoring candidate inside some cycle.
		best, bestScore := -1, -1
		for pass := 0; pass < 2 && best == -1; pass++ {
			for v := 0; v < n; v++ {
				if removed[v] || indeg[v] == 0 || outdeg[v] == 0 {
					continue
				}
				if pass == 0 && protected[v] {
					continue
				}
				if s := indeg[v] * outdeg[v]; s > bestScore {
					best, bestScore = v, s
				}
			}
		}
		if best == -1 {
			// Should be unreachable: a cyclic graph always has a vertex
			// with positive in- and out-degree.
			panic("feedback: MFVS found no candidate in a cyclic graph")
		}
		removed[best] = true
		selected = append(selected, best)
	}

	// Redundancy elimination: drop any selected vertex whose removal
	// from the set keeps the graph acyclic (self-loop vertices never
	// qualify). Process in reverse selection order.
	for i := len(selected) - 1; i >= 0; i-- {
		v := selected[i]
		removed[v] = false
		if isAcyclicWithout(g, removed) {
			selected = append(selected[:i], selected[i+1:]...)
		} else {
			removed[v] = true
		}
	}
	sort.Ints(selected)
	return selected
}

// ExposedInputName is the pseudo-primary-input name for an exposed latch.
func ExposedInputName(latchName string) string { return latchName }

// ExposedOutputName is the pseudo-primary-output name carrying the
// exposed latch's next-state function.
func ExposedOutputName(latchName string) string { return latchName + "$ns" }

// Expose cuts the given latches (by node ID): each becomes a pseudo
// primary input carrying its old name, and a new pseudo primary output
// named "<name>$ns" carries its next-state function (for a load-enabled
// latch: enable·data + ¬enable·state, so the cut is behaviour-exact).
// The result is a fresh circuit; node IDs are preserved.
func Expose(c *netlist.Circuit, latches []int) (*netlist.Circuit, error) {
	cut := make(map[int]bool, len(latches))
	for _, id := range latches {
		n := c.Nodes[id]
		if n.Kind != netlist.KindLatch {
			return nil, fmt.Errorf("feedback: node %d (%q) is not a latch", id, n.Name)
		}
		if n.Name == "" {
			return nil, fmt.Errorf("feedback: latch %d must be named to be exposed", id)
		}
		cut[id] = true
	}
	out := c.Clone()
	// Add next-state POs first (they reference data/enable before the
	// latch node is turned into an input).
	for _, id := range latches {
		n := out.Nodes[id]
		drv := n.Data()
		if n.Enable != netlist.NoEnable {
			drv = out.AddGate(n.Name+"$nsmux", netlist.OpMux, n.Enable, n.Data(), id)
		}
		out.AddOutput(ExposedOutputName(n.Name), drv)
	}
	// Convert latch nodes into primary inputs.
	newLatches := out.Latches[:0]
	for _, id := range out.Latches {
		if !cut[id] {
			newLatches = append(newLatches, id)
			continue
		}
		n := out.Nodes[id]
		n.Kind = netlist.KindInput
		n.Fanins = nil
		n.Enable = netlist.NoEnable
		out.Inputs = append(out.Inputs, id)
	}
	out.Latches = newLatches
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("feedback: exposure produced invalid circuit: %w", err)
	}
	return out, nil
}

// BreakFeedback runs the complete Section 7.1 pipeline: build the latch
// graph, select an MFVS (never exposing `protected` latch IDs when
// avoidable), and expose the selected latches. It returns the acyclic
// circuit and the exposed latch IDs (in c).
func BreakFeedback(c *netlist.Circuit, protected map[int]bool) (*netlist.Circuit, []int, error) {
	g := LatchGraph(c)
	var prot []bool
	if protected != nil {
		prot = make([]bool, g.NumVertices())
		for i, id := range g.LatchID {
			prot[i] = protected[id]
		}
	}
	sel := MFVS(g, prot)
	ids := make([]int, len(sel))
	for i, v := range sel {
		ids[i] = g.LatchID[v]
	}
	out, err := Expose(c, ids)
	if err != nil {
		return nil, nil, err
	}
	return out, ids, nil
}

// BreakFeedbackCtx is BreakFeedback under the context's tracer: a
// "feedback.break" span counts the latches of the input circuit
// and how many latches the MFVS heuristic chose to expose.
func BreakFeedbackCtx(ctx context.Context, c *netlist.Circuit, protected map[int]bool) (*netlist.Circuit, []int, error) {
	_, sp := obs.Start1(ctx, "feedback.break", obs.S("circuit", c.Name))
	out, ids, err := BreakFeedback(c, protected)
	if sp != nil {
		if err == nil {
			sp.Count("feedback.latches", int64(len(c.Latches)))
			sp.Count("feedback.exposed", int64(len(ids)))
		}
		sp.End()
	}
	return out, ids, err
}
