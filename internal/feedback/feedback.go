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
// Select picks the latches; a Cut reads the circuit as exposed and
// swept without building anything, and Cut.Circuit builds it.
package feedback

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

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

// LatchGraph builds the latch dependency graph of c. It walks the
// combinational logic once in topological order, giving each node its
// latch support as a bitset over the latch index: a latch's own bit,
// the union of its fanins' for a gate, none for an input. It fails on
// a combinational cycle.
func LatchGraph(c *netlist.Circuit) (*Graph, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	nl := len(c.Latches)
	w := (nl + 63) / 64
	sup := make([]uint64, len(c.Nodes)*w) // node id's support: sup[id*w:][:w]
	row := func(id int) []uint64 { return sup[id*w : (id+1)*w] }
	for v, id := range c.Latches {
		row(id)[v/64] |= 1 << (v % 64)
	}
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind != netlist.KindGate {
			continue
		}
		r := row(id)
		for _, f := range n.Fanins {
			for k, b := range row(f) {
				r[k] |= b
			}
		}
	}
	// Latch j's sources are the support of its data and enable; the
	// edges are counted first so the lists share one array.
	srcs := make([]uint64, nl*w)
	deg := make([]int, nl)
	for j, id := range c.Latches {
		n := c.Nodes[id]
		s := srcs[j*w : (j+1)*w]
		copy(s, row(n.Data()))
		if n.Enable != netlist.NoEnable {
			for k, b := range row(n.Enable) {
				s[k] |= b
			}
		}
		forBits(s, func(i int) { deg[i]++ })
	}
	g := &Graph{LatchID: slices.Clone(c.Latches), Adj: make([][]int, nl)}
	edges := 0
	for _, d := range deg {
		edges += d
	}
	adj := make([]int, 0, edges)
	for i, d := range deg {
		g.Adj[i] = adj[len(adj) : len(adj) : len(adj)+d]
		adj = adj[:len(adj)+d]
	}
	for j := range c.Latches {
		forBits(srcs[j*w:(j+1)*w], func(i int) { g.Adj[i] = append(g.Adj[i], j) })
	}
	return g, nil
}

// forBits calls f with the index of every set bit of s, in ascending
// order.
func forBits(s []uint64, f func(int)) {
	for k, b := range s {
		for b != 0 {
			f(k*64 + bits.TrailingZeros64(b))
			b &= b - 1
		}
	}
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
	var d acyclicity
	return d.without(g, removed)
}

// acyclicity is isAcyclicWithout's scratch, reused across the many
// checks MFVS makes.
type acyclicity struct {
	color  []uint8
	frames []dfsFrame
}

type dfsFrame struct {
	v, ei int
}

// without is isAcyclicWithout over d's scratch.
func (d *acyclicity) without(g *Graph, removed []bool) bool {
	n := g.NumVertices()
	const (
		white = 0
		gray  = 1
		black = 2
	)
	d.color = slices.Grow(d.color[:0], n)[:n]
	clear(d.color)
	color := d.color
	for root := 0; root < n; root++ {
		if removed[root] || color[root] != white {
			continue
		}
		frames := append(d.frames[:0], dfsFrame{root, 0})
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
					frames = append(frames, dfsFrame{w, 0})
				case gray:
					d.frames = frames
					return false
				}
				continue
			}
			color[f.v] = black
			frames = frames[:len(frames)-1]
		}
		d.frames = frames
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

	var acyclic acyclicity
	for !acyclic.without(g, removed) {
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
		if acyclic.without(g, removed) {
			selected = append(selected[:i], selected[i+1:]...)
		} else {
			removed[v] = true
		}
	}
	sort.Ints(selected)
	return selected
}

// The suffixes of an exposed latch's next-state output and, for a
// load-enabled latch, of the gate driving it. The first is a prefix of
// the second, which lets a Cut keep both names in one string.
const (
	nsSuffix    = "$ns"
	nsMuxSuffix = nsSuffix + "mux"
)

// nextStateNames cuts one latch's "<latch>$nsmux" off the front of the
// names checkExposable returned, and returns it with its prefix
// "<latch>$ns".
func nextStateNames(names *string, latch string) (mux, ns string) {
	mux = (*names)[:len(latch)+len(nsMuxSuffix)]
	*names = (*names)[len(mux):]
	return mux, mux[:len(latch)+len(nsSuffix)]
}

// checkExposable fails unless every given node is a named latch whose
// exposure adds no name c already has: no node or output of c may be
// named "<latch>$ns", and for a load-enabled latch no node may be named
// "<latch>$nsmux". It returns every latch's "<latch>$nsmux" in one
// string, in order; each starts with that latch's "<latch>$ns".
func checkExposable(c *netlist.Circuit, latches []int) (string, error) {
	size := 0
	for _, id := range latches {
		n := c.Nodes[id]
		if n.Kind != netlist.KindLatch {
			return "", fmt.Errorf("feedback: node %d (%q) is not a latch", id, n.Name)
		}
		if n.Name == "" {
			return "", fmt.Errorf("feedback: latch %d must be named to be exposed", id)
		}
		size += len(n.Name) + len(nsMuxSuffix)
	}
	buf := make([]byte, 0, size)
	for _, id := range latches {
		buf = append(append(buf, c.Nodes[id].Name...), nsMuxSuffix...)
	}
	names := string(buf)
	rest := names
	for _, id := range latches {
		l := c.Nodes[id]
		mux, ns := nextStateNames(&rest, l.Name)
		if c.Lookup(ns) >= 0 {
			return "", fmt.Errorf("feedback: exposing latch %q adds output %q, which a signal already names", l.Name, ns)
		}
		if l.Enable != netlist.NoEnable && c.Lookup(mux) >= 0 {
			return "", fmt.Errorf("feedback: exposing latch %q adds gate %q, which a signal already names", l.Name, mux)
		}
	}
	for _, o := range c.Outputs {
		if l, ok := strings.CutSuffix(o.Name, nsSuffix); ok {
			if id := c.Lookup(l); id >= 0 && slices.Contains(latches, id) {
				return "", fmt.Errorf("feedback: exposing latch %q adds output %q, which an output already names", l, o.Name)
			}
		}
	}
	return names, nil
}

// Select runs the Section 7.1 selection: build the latch graph and
// pick a feedback vertex set with MFVS, never exposing a `protected`
// latch ID when avoidable. It returns the selected latch IDs in c's
// latch declaration order, for NewCut to expose.
func Select(c *netlist.Circuit, protected map[int]bool) ([]int, error) {
	g, err := LatchGraph(c)
	if err != nil {
		return nil, err
	}
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
	return ids, nil
}

// SelectCtx is Select under the context's tracer: a "feedback.break"
// span counts the latches of c and how many latches the MFVS heuristic
// chose to expose.
func SelectCtx(ctx context.Context, c *netlist.Circuit, protected map[int]bool) ([]int, error) {
	_, sp := obs.Start1(ctx, "feedback.break", obs.S("circuit", c.Name))
	ids, err := Select(c, protected)
	if sp != nil {
		if err == nil {
			sp.Count("feedback.latches", int64(len(c.Latches)))
			sp.Count("feedback.exposed", int64(len(ids)))
		}
		sp.End()
	}
	return ids, err
}
