package feedback

import (
	"fmt"
	"slices"

	"seqver/internal/netlist"
)

// Cut is a circuit read with some of its latches exposed, in place: it
// reads as the circuit Circuit builds, node for node, but builds
// nothing. An exposed latch reads as an input carrying its name. After
// the circuit's own outputs come the "<name>$ns" outputs, in exposure
// order, each driven by the latch's data or, for a load-enabled latch,
// by a "<name>$nsmux" gate (enable, data, latch) that the cut numbers
// after the circuit's nodes. The CBF and EDBF walks read their circuit
// through a Cut, so the check path exposes latches without copying or
// sweeping the circuit.
type Cut struct {
	// Inputs lists the input nodes in the order the swept circuit
	// declares them: node-ID order over the circuit's inputs and the
	// exposed latches.
	Inputs []int
	// Outputs lists the circuit's outputs, then one next-state output
	// per exposed latch.
	Outputs []netlist.Output

	c       *netlist.Circuit
	exposed []bool         // per node of c; nil reads c whole
	muxes   []netlist.Node // the "$nsmux" gates, nodes len(c.Nodes)+k
	live    []bool         // per node, whether Sweep keeps it, once swept
	gates   int            // gates Sweep keeps, once swept
	regular bool           // no unexposed latch has an enable
	acyclic bool           // CheckAcyclic has passed
}

// Whole reads c as it is: nothing exposed and nothing swept.
func Whole(c *netlist.Circuit) *Cut {
	return &Cut{Inputs: c.Inputs, Outputs: c.Outputs, c: c, regular: c.IsRegular()}
}

// NewCut exposes the given latches (by node ID) of c without copying
// it. It fails on a node that is not a latch, on an unnamed latch, or
// on a latch whose next-state names c already uses.
func NewCut(c *netlist.Circuit, latches []int) (*Cut, error) {
	names, err := checkExposable(c, latches)
	if err != nil {
		return nil, err
	}
	n := len(c.Nodes)
	x := &Cut{c: c, exposed: make([]bool, n), regular: true}
	enabled := 0
	for _, id := range latches {
		x.exposed[id] = true
		if c.Nodes[id].Enable != netlist.NoEnable {
			enabled++
		}
	}

	x.muxes = make([]netlist.Node, 0, enabled)
	fanins := make([]int, 0, 3*enabled)
	x.Outputs = append(make([]netlist.Output, 0, len(c.Outputs)+len(latches)), c.Outputs...)
	for _, id := range latches {
		l := c.Nodes[id]
		mux, ns := nextStateNames(&names, l.Name)
		drv := l.Data()
		if l.Enable != netlist.NoEnable {
			drv = n + len(x.muxes)
			fanins = append(fanins, l.Enable, l.Data(), id)
			x.muxes = append(x.muxes, netlist.Node{ID: drv, Name: mux,
				Kind: netlist.KindGate, Op: netlist.OpMux,
				Fanins: fanins[len(fanins)-3 : len(fanins) : len(fanins)], Enable: netlist.NoEnable})
		}
		x.Outputs = append(x.Outputs, netlist.Output{Name: ns, Node: drv})
	}

	// Sweep keeps every input and latch; Kind tells an exposed latch
	// is an input.
	x.Inputs = append(append(make([]int, 0, len(c.Inputs)+len(latches)), c.Inputs...), latches...)
	slices.Sort(x.Inputs)
	for _, id := range c.Latches {
		x.regular = x.regular && (x.exposed[id] || c.Nodes[id].Enable == netlist.NoEnable)
	}
	return x, nil
}

// Circuit builds the circuit a cut made by NewCut reads: a copy of the
// source with the "$nsmux" gates added, the "$ns" outputs appended and
// the exposed latches turned into inputs, swept by
// netlist.Sweep(…, false), which drops the logic no output or latch
// reads and compacts the IDs.
func (x *Cut) Circuit() (*netlist.Circuit, error) {
	out := x.c.Clone()
	for _, m := range x.muxes {
		out.AddGate(m.Name, m.Op, m.Fanins...)
	}
	out.Outputs = append(out.Outputs, x.Outputs[len(x.c.Outputs):]...)
	latches := out.Latches[:0]
	for _, id := range out.Latches {
		if !x.Exposed(id) {
			latches = append(latches, id)
			continue
		}
		n := out.Nodes[id]
		n.Kind, n.Fanins, n.Enable = netlist.KindInput, nil, netlist.NoEnable
		out.Inputs = append(out.Inputs, id)
	}
	out.Latches = latches
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("feedback: exposure produced invalid circuit: %w", err)
	}
	return netlist.Sweep(out, false), nil
}

// sweep marks the nodes Sweep would keep, once: the inputs and
// whatever an output or an unexposed latch reads (an exposed latch,
// now an input, reads nothing). Only the gate count, an unnamed
// latch's swept ID and a cycle's report need it.
func (x *Cut) sweep() {
	if x.live != nil || x.exposed == nil {
		return
	}
	x.live = make([]bool, x.NumNodes())
	var stack []int
	push := func(id int) {
		if !x.live[id] {
			x.live[id] = true
			stack = append(stack, id)
		}
	}
	for _, o := range x.Outputs {
		push(o.Node)
	}
	for _, id := range x.c.Latches {
		push(id)
	}
	for _, id := range x.c.Inputs {
		push(id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x.Exposed(id) {
			continue
		}
		nd := x.Node(id)
		for _, f := range nd.Fanins {
			push(f)
		}
		if nd.Kind == netlist.KindLatch && nd.Enable != netlist.NoEnable {
			push(nd.Enable)
		}
	}
	for id, live := range x.live {
		if live && x.Kind(id) == netlist.KindGate {
			x.gates++
		}
	}
}

// Source returns the circuit the cut reads.
func (x *Cut) Source() *netlist.Circuit { return x.c }

// NumNodes is the number of nodes the cut reads: the circuit's, then
// the "$nsmux" gates.
func (x *Cut) NumNodes() int { return len(x.c.Nodes) + len(x.muxes) }

// Node returns node id: a node of the circuit or a "$nsmux" gate. An
// exposed latch's node is the latch's; Kind tells it is an input.
func (x *Cut) Node(id int) *netlist.Node {
	if id < len(x.c.Nodes) {
		return x.c.Nodes[id]
	}
	return &x.muxes[id-len(x.c.Nodes)]
}

// Exposed reports whether node id is an exposed latch.
func (x *Cut) Exposed(id int) bool { return id < len(x.exposed) && x.exposed[id] }

// Kind returns node id's kind under the cut: an exposed latch is an
// input.
func (x *Cut) Kind(id int) netlist.Kind {
	if x.Exposed(id) {
		return netlist.KindInput
	}
	return x.Node(id).Kind
}

// NumGates is the gate count of the swept exposed circuit (of the
// circuit itself, read whole).
func (x *Cut) NumGates() int {
	if x.exposed == nil {
		return x.c.NumGates()
	}
	x.sweep()
	return x.gates
}

// IsRegular reports whether every latch left unexposed is regular.
func (x *Cut) IsRegular() bool { return x.regular }

// OutputNames returns the output names in order.
func (x *Cut) OutputNames() []string {
	names := make([]string, len(x.Outputs))
	for i, o := range x.Outputs {
		names[i] = o.Name
	}
	return names
}

// SweptID returns node id's ID in the swept exposed circuit, where
// Sweep has compacted the IDs of the nodes it kept.
func (x *Cut) SweptID(id int) int {
	x.sweep()
	if x.live == nil {
		return id
	}
	k := 0
	for _, live := range x.live[:id] {
		if live {
			k++
		}
	}
	return k
}

// CheckAcyclic verifies that the circuit has no feedback path left
// through its unexposed latches: the dependency graph of gate fanins
// and latch data and enable edges, in which an exposed latch is a
// leaf, must be acyclic. A cycle is reported through the node the
// swept circuit's check would name. A cut is checked once: a later
// call returns nil at once.
func (x *Cut) CheckAcyclic() error {
	if x.acyclic {
		return nil
	}
	// Logic Sweep drops is on no feedback path (that would be a
	// combinational cycle, which the netlist's Check rejects), so the verdict needs
	// no sweep; naming the cycle as the swept circuit's check does
	// needs its roots, the nodes Sweep keeps, in order.
	if x.cycle() >= 0 {
		x.sweep()
		return fmt.Errorf("feedback path through %q; expose or decompose feedback latches first", x.c.Nodes[x.cycle()].Name)
	}
	x.acyclic = true
	return nil
}

// cycle runs the depth-first search from every root in ID order (every
// live root, once swept) and returns the node it finds a cycle
// through, or -1.
func (x *Cut) cycle() int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(x.c.Nodes) // a "$nsmux" gate feeds nothing, so is on no cycle
	color := make([]uint8, n)
	type frame struct {
		id   int
		next int
	}
	// edge returns node id's i-th dependency: its fanins, then a
	// latch's enable; an exposed latch has none.
	edge := func(id, i int) (int, bool) {
		if x.Exposed(id) {
			return 0, false
		}
		nd := x.c.Nodes[id]
		if i < len(nd.Fanins) {
			return nd.Fanins[i], true
		}
		if i == len(nd.Fanins) && nd.Kind == netlist.KindLatch && nd.Enable != netlist.NoEnable {
			return nd.Enable, true
		}
		return 0, false
	}
	var stack []frame
	for root := 0; root < n; root++ {
		if color[root] != white || (x.live != nil && !x.live[root]) {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{root, 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if ch, ok := edge(f.id, f.next); ok {
				f.next++
				switch color[ch] {
				case white:
					color[ch] = gray
					stack = append(stack, frame{ch, 0})
				case gray:
					return ch
				}
				continue
			}
			color[f.id] = black
			stack = stack[:len(stack)-1]
		}
	}
	return -1
}
