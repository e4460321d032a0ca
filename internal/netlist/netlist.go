// Package netlist defines the sequential circuit model used throughout
// seqver: an interconnection of combinational gates (no combinational
// cycles) and single-phase edge-triggered latches, each optionally guarded
// by a load-enable signal.
//
// This is the circuit model of Section 3.1 of Ranjan et al., "Using
// Combinational Verification for Sequential Circuits" (UCB/ERL M97/77):
// a circuit C = (I, O, G, L) where each latch l = (x, e) pairs an output
// signal x with a load-enable signal e (e == 1 for a "regular" latch).
// Latches with the same enable signal form a latch class cl = (e); retiming
// may only merge latches of the same class.
package netlist

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Kind discriminates the three node species of a circuit.
type Kind uint8

const (
	// KindInput is a primary input; it has no fanins.
	KindInput Kind = iota
	// KindGate is a combinational gate; its function is given by Op
	// (and, for OpTable, by Cover).
	KindGate
	// KindLatch is an edge-triggered latch output. Fanins[0] is the data
	// input; Enable (if >= 0) is the load-enable signal node.
	KindLatch
)

func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindGate:
		return "gate"
	case KindLatch:
		return "latch"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Op enumerates the combinational gate functions. OpTable covers arbitrary
// single-output functions via a sum-of-products cover (BLIF .names style);
// the rest are primitives that synthesis and mapping understand natively.
type Op uint8

const (
	OpConst0 Op = iota // constant 0, no fanins
	OpConst1           // constant 1, no fanins
	OpBuf              // identity, 1 fanin
	OpNot              // complement, 1 fanin
	OpAnd              // conjunction, >= 1 fanins
	OpOr               // disjunction, >= 1 fanins
	OpNand             // complemented conjunction, >= 1 fanins
	OpNor              // complemented disjunction, >= 1 fanins
	OpXor              // parity, >= 1 fanins
	OpXnor             // complemented parity, >= 1 fanins
	OpMux              // Fanins[0] ? Fanins[1] : Fanins[2]
	OpTable            // SOP cover over the fanins (see Cube)
)

var opNames = [...]string{
	OpConst0: "const0", OpConst1: "const1", OpBuf: "buf", OpNot: "not",
	OpAnd: "and", OpOr: "or", OpNand: "nand", OpNor: "nor",
	OpXor: "xor", OpXnor: "xnor", OpMux: "mux", OpTable: "table",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Cube is one product term of an OpTable cover: one byte per fanin, each
// '0', '1' or '-'. A cover evaluates to 1 iff some cube matches; an empty
// cover is the constant 0 (use OpConst0/1 where possible).
type Cube string

// Matches reports whether the cube covers the given fanin assignment.
func (c Cube) Matches(in []bool) bool {
	for i := 0; i < len(c); i++ {
		switch c[i] {
		case '0':
			if in[i] {
				return false
			}
		case '1':
			if !in[i] {
				return false
			}
		}
	}
	return true
}

// NoEnable marks a regular latch (load-enable identically 1).
const NoEnable = -1

// Node is one vertex of the circuit: a primary input, a gate, or a latch
// output. Nodes are identified by dense integer IDs within their Circuit.
type Node struct {
	ID     int
	Name   string
	Kind   Kind
	Op     Op     // valid when Kind == KindGate
	Fanins []int  // gate fanins, or [data] for a latch
	Cover  []Cube // valid when Op == OpTable

	// Enable is the node ID of the latch's load-enable signal, or
	// NoEnable for a regular latch. Valid when Kind == KindLatch.
	Enable int
}

// Data returns the latch's data-input node ID. It panics on non-latches.
func (n *Node) Data() int {
	if n.Kind != KindLatch {
		panic("netlist: Data on non-latch node " + n.Name)
	}
	return n.Fanins[0]
}

// Output names a primary output and the node that drives it.
type Output struct {
	Name string
	Node int
}

// Circuit is a sequential circuit C = (I, O, G, L). The zero value is an
// empty circuit ready for use via the Add* methods.
type Circuit struct {
	Name    string
	Nodes   []*Node
	Inputs  []int // node IDs, in declaration order
	Outputs []Output
	Latches []int // node IDs of latch nodes, in declaration order

	byName map[string]int

	// Nodes, fanin lists and covers are carved from per-circuit chunks
	// (see DESIGN.md, "Front end data layout"). Each Fanins and Cover is
	// a capacity-capped sub-slice s[i:j:j] of its chunk, so an append
	// on one node reallocates instead of writing into its neighbour.
	slab  []Node
	ints  []int
	cubes []Cube
}

// Arena chunk sizes: a new chunk holds about as many entries as the
// circuit already has nodes (so chunks double as a circuit grows), and
// never fewer than minChunk or more than maxChunk, unless one request
// needs more.
const (
	minChunk = 16
	maxChunk = 1 << 12
)

func chunkSize(nodes, need int) int {
	return max(need, min(max(nodes, minChunk), maxChunk))
}

// newNode returns a node slot from the circuit's slab, set to n.
func (c *Circuit) newNode(n Node) *Node {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]Node, 0, chunkSize(len(c.Nodes), 1))
	}
	c.slab = append(c.slab, n)
	return &c.slab[len(c.slab)-1]
}

// allocInts returns k zeroed ints from the fanin arena, capped at k;
// nil when k is 0. Arena memory is handed out once and never reused,
// so it is still zero.
func (c *Circuit) allocInts(k int) []int {
	if k == 0 {
		return nil
	}
	if cap(c.ints)-len(c.ints) < k {
		c.ints = make([]int, 0, chunkSize(2*len(c.Nodes), k))
	}
	i := len(c.ints)
	c.ints = c.ints[:i+k]
	return c.ints[i : i+k : i+k]
}

// intSlice returns a copy of s in the fanin arena (see allocInts).
func (c *Circuit) intSlice(s []int) []int {
	d := c.allocInts(len(s))
	copy(d, s)
	return d
}

// cubeSlice is intSlice for covers.
func (c *Circuit) cubeSlice(s []Cube) []Cube {
	k := len(s)
	if k == 0 {
		return nil
	}
	if cap(c.cubes)-len(c.cubes) < k {
		c.cubes = make([]Cube, 0, chunkSize(2*len(c.Nodes), k))
	}
	i := len(c.cubes)
	c.cubes = append(c.cubes, s...)
	return c.cubes[i : i+k : i+k]
}

// Grow reserves room for n more nodes: adding them then grows neither
// Nodes, the name index nor the node slab.
func (c *Circuit) Grow(n int) {
	c.grow(n, 0, 0)
}

// grow is Grow that also reserves fanin and cover arena room.
func (c *Circuit) grow(nodes, fanins, cubes int) {
	if nodes > 0 {
		c.Nodes = slices.Grow(c.Nodes, nodes)
		m := make(map[string]int, len(c.byName)+nodes)
		maps.Copy(m, c.byName)
		c.byName = m
		if cap(c.slab)-len(c.slab) < nodes {
			c.slab = make([]Node, 0, nodes)
		}
	}
	if cap(c.ints)-len(c.ints) < fanins {
		c.ints = make([]int, 0, fanins)
	}
	if cap(c.cubes)-len(c.cubes) < cubes {
		c.cubes = make([]Cube, 0, cubes)
	}
}

// New returns an empty circuit with the given model name.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]int)}
}

// NumNodes returns the total node count (inputs + gates + latches).
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumGates returns the number of combinational gates.
func (c *Circuit) NumGates() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Kind == KindGate {
			n++
		}
	}
	return n
}

// Node returns the node with the given ID.
func (c *Circuit) Node(id int) *Node { return c.Nodes[id] }

// Lookup returns the node ID for a signal name, or -1 if absent.
func (c *Circuit) Lookup(name string) int {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return -1
}

// MustLookup is Lookup that panics on a missing name; for tests and
// generators where absence is a programming error.
func (c *Circuit) MustLookup(name string) int {
	id := c.Lookup(name)
	if id < 0 {
		panic("netlist: unknown signal " + name)
	}
	return id
}

// add appends n as a new node and returns its ID. It panics when the
// name is taken.
func (c *Circuit) add(n Node) int {
	id, ok := c.tryAdd(n)
	if !ok {
		panic("netlist: duplicate signal name " + n.Name)
	}
	return id
}

// tryAdd is add that reports a taken name instead of panicking; the
// circuit is then unchanged. A named node costs one name-index
// operation: the insert itself detects the duplicate.
func (c *Circuit) tryAdd(n Node) (int, bool) {
	if c.byName == nil {
		c.byName = make(map[string]int)
	}
	n.ID = len(c.Nodes)
	if n.Name != "" {
		before := len(c.byName)
		c.byName[n.Name] = n.ID
		if len(c.byName) == before {
			// Restore the first holder of the name (the index always
			// maps a name to the first node that took it).
			for _, old := range c.Nodes {
				if old.Name == n.Name {
					c.byName[n.Name] = old.ID
					break
				}
			}
			return -1, false
		}
	}
	c.Nodes = append(c.Nodes, c.newNode(n))
	return n.ID, true
}

// AddInput declares a primary input and returns its node ID.
func (c *Circuit) AddInput(name string) int {
	id := c.add(Node{Name: name, Kind: KindInput, Enable: NoEnable})
	c.Inputs = append(c.Inputs, id)
	return id
}

// AddGate adds a combinational gate and returns its node ID.
func (c *Circuit) AddGate(name string, op Op, fanins ...int) int {
	switch op {
	case OpConst0, OpConst1:
		if len(fanins) != 0 {
			panic("netlist: constant gate with fanins")
		}
	case OpBuf, OpNot:
		if len(fanins) != 1 {
			panic(fmt.Sprintf("netlist: %v gate needs exactly 1 fanin, got %d", op, len(fanins)))
		}
	case OpMux:
		if len(fanins) != 3 {
			panic("netlist: mux gate needs exactly 3 fanins")
		}
	case OpTable:
		panic("netlist: use AddTable for table gates")
	default:
		if len(fanins) == 0 {
			panic(fmt.Sprintf("netlist: %v gate needs fanins", op))
		}
	}
	return c.add(Node{Name: name, Kind: KindGate, Op: op, Fanins: c.intSlice(fanins), Enable: NoEnable})
}

// AddTable adds a gate defined by a sum-of-products cover over fanins.
// Each cube must have exactly len(fanins) characters from {0,1,-}.
func (c *Circuit) AddTable(name string, fanins []int, cover []Cube) int {
	for _, cu := range cover {
		if len(cu) != len(fanins) {
			panic(fmt.Sprintf("netlist: cube %q width %d != fanin count %d", cu, len(cu), len(fanins)))
		}
		for i := 0; i < len(cu); i++ {
			switch cu[i] {
			case '0', '1', '-':
			default:
				panic(fmt.Sprintf("netlist: bad cube literal %q in %q", cu[i], cu))
			}
		}
	}
	return c.add(Node{Name: name, Kind: KindGate, Op: OpTable,
		Fanins: c.intSlice(fanins), Cover: c.cubeSlice(cover), Enable: NoEnable})
}

// AddLatch adds a regular (always-enabled) latch with the given data input
// and returns its output node ID.
func (c *Circuit) AddLatch(name string, data int) int {
	return c.AddEnabledLatch(name, data, NoEnable)
}

// AddEnabledLatch adds a latch with a load-enable signal. When enable is
// NoEnable the latch is regular. The latch updates to the data value on
// clock edges where the enable is 1 and holds its value otherwise.
func (c *Circuit) AddEnabledLatch(name string, data, enable int) int {
	id := c.add(Node{Name: name, Kind: KindLatch, Fanins: c.intSlice([]int{data}), Enable: enable})
	c.Latches = append(c.Latches, id)
	return id
}

// AddOutput declares node as a primary output under the given name.
func (c *Circuit) AddOutput(name string, node int) {
	c.Outputs = append(c.Outputs, Output{Name: name, Node: node})
}

// SetLatchData redirects the data input of latch node id. Used by
// transformations that rebuild latch cones in place.
func (c *Circuit) SetLatchData(id, data int) {
	n := c.Nodes[id]
	if n.Kind != KindLatch {
		panic("netlist: SetLatchData on non-latch")
	}
	n.Fanins[0] = data
}

// LatchClass returns the enable-signal node defining the latch class
// cl = (e) of latch id (NoEnable for regular latches).
func (c *Circuit) LatchClass(id int) int {
	n := c.Nodes[id]
	if n.Kind != KindLatch {
		panic("netlist: LatchClass on non-latch")
	}
	return n.Enable
}

// IsRegular reports whether every latch in the circuit is regular
// (has no load-enable signal).
func (c *Circuit) IsRegular() bool {
	for _, id := range c.Latches {
		if c.Nodes[id].Enable != NoEnable {
			return false
		}
	}
	return true
}

// Fanouts returns, for each node, the IDs of the nodes that read it
// (including latches reading it as data, but not as enable unless
// withEnables is true) plus a flag slice marking nodes read by a primary
// output.
func (c *Circuit) Fanouts(withEnables bool) (fan [][]int, isPO []bool) {
	fan = make([][]int, len(c.Nodes))
	isPO = make([]bool, len(c.Nodes))
	for _, n := range c.Nodes {
		for _, f := range n.Fanins {
			fan[f] = append(fan[f], n.ID)
		}
		if withEnables && n.Kind == KindLatch && n.Enable != NoEnable {
			fan[n.Enable] = append(fan[n.Enable], n.ID)
		}
	}
	for _, o := range c.Outputs {
		isPO[o.Node] = true
	}
	return fan, isPO
}

// TopoOrder returns the node IDs in a topological order of the
// combinational logic: inputs and latch outputs first (as leaves), then
// gates so that every gate follows all of its fanins. It returns an error
// if the combinational logic contains a cycle (latch outputs break cycles;
// purely combinational cycles are illegal).
func (c *Circuit) TopoOrder() ([]int, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, len(c.Nodes))
	order := make([]int, 0, len(c.Nodes))

	// Leaves first.
	for _, n := range c.Nodes {
		if n.Kind != KindGate {
			color[n.ID] = black
			order = append(order, n.ID)
		}
	}
	// Iterative DFS over gates.
	type frame struct {
		id   int
		next int
	}
	var stack []frame
	visit := func(root int) error {
		if color[root] != white {
			return nil
		}
		stack = append(stack[:0], frame{root, 0})
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			n := c.Nodes[f.id]
			if f.next < len(n.Fanins) {
				ch := n.Fanins[f.next]
				f.next++
				switch color[ch] {
				case white:
					color[ch] = gray
					stack = append(stack, frame{ch, 0})
				case gray:
					return fmt.Errorf("netlist: combinational cycle through %q", c.Nodes[ch].Name)
				}
				continue
			}
			color[f.id] = black
			order = append(order, f.id)
			stack = stack[:len(stack)-1]
		}
		return nil
	}
	for _, n := range c.Nodes {
		if n.Kind == KindGate {
			if err := visit(n.ID); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// Check validates structural sanity: fanin IDs in range, no combinational
// cycles, outputs referencing real nodes, latch enables referencing real
// nodes.
func (c *Circuit) Check() error {
	for _, n := range c.Nodes {
		for _, f := range n.Fanins {
			if f < 0 || f >= len(c.Nodes) {
				return fmt.Errorf("netlist: node %q fanin %d out of range", n.Name, f)
			}
		}
		if n.Kind == KindLatch {
			if len(n.Fanins) != 1 {
				return fmt.Errorf("netlist: latch %q must have exactly one data input", n.Name)
			}
			if n.Enable != NoEnable && (n.Enable < 0 || n.Enable >= len(c.Nodes)) {
				return fmt.Errorf("netlist: latch %q enable %d out of range", n.Name, n.Enable)
			}
		}
	}
	for _, o := range c.Outputs {
		if o.Node < 0 || o.Node >= len(c.Nodes) {
			return fmt.Errorf("netlist: output %q node %d out of range", o.Name, o.Node)
		}
	}
	_, err := c.TopoOrder()
	return err
}

// EvalGate computes a gate's output from its fanin values.
func EvalGate(n *Node, in []bool) bool {
	switch n.Op {
	case OpConst0:
		return false
	case OpConst1:
		return true
	case OpBuf:
		return in[0]
	case OpNot:
		return !in[0]
	case OpAnd, OpNand:
		v := true
		for _, b := range in {
			v = v && b
		}
		if n.Op == OpNand {
			return !v
		}
		return v
	case OpOr, OpNor:
		v := false
		for _, b := range in {
			v = v || b
		}
		if n.Op == OpNor {
			return !v
		}
		return v
	case OpXor, OpXnor:
		v := false
		for _, b := range in {
			v = v != b
		}
		if n.Op == OpXnor {
			return !v
		}
		return v
	case OpMux:
		if in[0] {
			return in[1]
		}
		return in[2]
	case OpTable:
		for _, cu := range n.Cover {
			if cu.Matches(in) {
				return true
			}
		}
		return false
	}
	panic("netlist: EvalGate on " + n.Op.String())
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := New(c.Name)
	out.grow(arenaNeed(c.Nodes, nil))
	for i, n := range c.Nodes {
		out.Nodes = append(out.Nodes, out.newNode(out.arenaCopy(n)))
		if n.Name != "" {
			out.byName[n.Name] = i
		}
	}
	out.Inputs = append([]int(nil), c.Inputs...)
	out.Outputs = append([]Output(nil), c.Outputs...)
	out.Latches = append([]int(nil), c.Latches...)
	return out
}

// arenaCopy returns a copy of n whose fanins and cover live in c's
// arenas.
func (c *Circuit) arenaCopy(n *Node) Node {
	cp := *n
	cp.Fanins = c.intSlice(n.Fanins)
	cp.Cover = c.cubeSlice(n.Cover)
	return cp
}

// arenaNeed counts the nodes, fanins and cubes that copying the nodes
// marked in keep (all of them when keep is nil) takes.
func arenaNeed(nodes []*Node, keep []bool) (n, fanins, cubes int) {
	for i, nd := range nodes {
		if keep == nil || keep[i] {
			n, fanins, cubes = n+1, fanins+len(nd.Fanins), cubes+len(nd.Cover)
		}
	}
	return n, fanins, cubes
}

// Stats summarizes circuit size; Levels is the maximum gate depth of any
// output cone measured in gates (unit delay model).
type Stats struct {
	Inputs, Outputs, Gates, Latches, Levels int
}

// Stats computes circuit statistics. It panics if the circuit has a
// combinational cycle (call Check first when in doubt).
func (c *Circuit) Stats() Stats {
	order, err := c.TopoOrder()
	if err != nil {
		panic(err)
	}
	level := make([]int, len(c.Nodes))
	maxLevel := 0
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind != KindGate {
			continue
		}
		lv := 0
		for _, f := range n.Fanins {
			if level[f] >= lv {
				lv = level[f] + 1
			}
		}
		level[id] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	return Stats{
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Gates:   c.NumGates(),
		Latches: len(c.Latches),
		Levels:  maxLevel,
	}
}

// LatchClasses returns the distinct latch classes in the circuit, each as
// the slice of latch node IDs sharing one enable signal, keyed by enable
// node ID (NoEnable for the regular class). Classes are returned in
// ascending enable order for determinism.
func (c *Circuit) LatchClasses() map[int][]int {
	cls := make(map[int][]int)
	for _, id := range c.Latches {
		e := c.Nodes[id].Enable
		cls[e] = append(cls[e], id)
	}
	return cls
}

// SortedNames returns all named signals in lexical order (test helper).
func (c *Circuit) SortedNames() []string {
	names := make([]string, 0, len(c.byName))
	for n := range c.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
