// Package aig implements And-Inverter Graphs with structural hashing,
// 64-way parallel bit simulation, and Tseitin CNF generation. The AIG is
// the shared combinational representation used by the synthesis substitute
// (sweep/rewrite/balance) and by the equivalence checker's candidate
// filtering, mirroring the architecture of the combinational verifiers the
// paper leans on (Matsunaga DAC'96; Kuehlmann-Krohm DAC'97).
package aig

import (
	"fmt"
	"math/rand"

	"seqver/internal/netlist"
	"seqver/internal/sat"
)

// Lit is an AIG edge: node index shifted left once, LSB = complement.
// Node 0 is the constant-FALSE node, so Lit 0 is FALSE and Lit 1 is TRUE.
type Lit uint32

// Constant edges.
const (
	False Lit = 0
	True  Lit = 1
)

// MkLit builds an edge from node index and complement flag.
func MkLit(node uint32, compl bool) Lit {
	l := Lit(node << 1)
	if compl {
		l |= 1
	}
	return l
}

// Node returns the edge's node index.
func (l Lit) Node() uint32 { return uint32(l) >> 1 }

// Compl reports whether the edge is complemented.
func (l Lit) Compl() bool { return l&1 == 1 }

// Not returns the complemented edge.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the edge when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// AIG is an and-inverter graph. Node 0 is the constant; nodes 1..NumPIs
// are primary inputs; the rest are two-input AND nodes.
type AIG struct {
	fanin0, fanin1 []Lit // per node; zero for const/PI nodes
	numPIs         int
	piNames        []string
	pos            []Lit
	poNames        []string
	strash         map[[2]Lit]uint32
}

// New returns an empty AIG with the given primary inputs.
func New(piNames []string) *AIG {
	a := &AIG{strash: make(map[[2]Lit]uint32)}
	a.fanin0 = append(a.fanin0, 0)
	a.fanin1 = append(a.fanin1, 0)
	for _, n := range piNames {
		a.addNode(0, 0)
		a.piNames = append(a.piNames, n)
		a.numPIs++
	}
	return a
}

func (a *AIG) addNode(f0, f1 Lit) uint32 {
	idx := uint32(len(a.fanin0))
	a.fanin0 = append(a.fanin0, f0)
	a.fanin1 = append(a.fanin1, f1)
	return idx
}

// NumPIs returns the primary input count.
func (a *AIG) NumPIs() int { return a.numPIs }

// NumNodes returns the total node count including constant and PIs.
func (a *AIG) NumNodes() int { return len(a.fanin0) }

// NumAnds returns the AND-node count (the classic AIG size metric).
func (a *AIG) NumAnds() int { return len(a.fanin0) - 1 - a.numPIs }

// PI returns the edge for primary input i.
func (a *AIG) PI(i int) Lit {
	if i < 0 || i >= a.numPIs {
		panic(fmt.Sprintf("aig: PI %d out of range", i))
	}
	return MkLit(uint32(i+1), false)
}

// PIName returns the name of primary input i.
func (a *AIG) PIName(i int) string { return a.piNames[i] }

// PINames returns all primary input names.
func (a *AIG) PINames() []string { return a.piNames }

// AddPI appends a fresh primary input.
func (a *AIG) AddPI(name string) Lit {
	idx := a.addNode(0, 0)
	// PIs must be contiguous after the constant: only legal before ANDs.
	if int(idx) != a.numPIs+1 {
		panic("aig: AddPI after AND nodes")
	}
	a.piNames = append(a.piNames, name)
	a.numPIs++
	return MkLit(idx, false)
}

// IsPI reports whether node n is a primary input.
func (a *AIG) IsPI(n uint32) bool { return n >= 1 && int(n) <= a.numPIs }

// IsConst reports whether node n is the constant node.
func (a *AIG) IsConst(n uint32) bool { return n == 0 }

// Fanins returns the two fanin edges of AND node n.
func (a *AIG) Fanins(n uint32) (Lit, Lit) { return a.fanin0[n], a.fanin1[n] }

// AddPO registers an output edge under a name and returns its index.
func (a *AIG) AddPO(name string, l Lit) int {
	a.pos = append(a.pos, l)
	a.poNames = append(a.poNames, name)
	return len(a.pos) - 1
}

// NumPOs returns the primary output count.
func (a *AIG) NumPOs() int { return len(a.pos) }

// PO returns output i's edge.
func (a *AIG) PO(i int) Lit { return a.pos[i] }

// POName returns output i's name.
func (a *AIG) POName(i int) string { return a.poNames[i] }

// SetPO replaces output i's edge (used by restructuring passes).
func (a *AIG) SetPO(i int, l Lit) { a.pos[i] = l }

// And returns the conjunction of two edges, applying constant folding,
// trivial-case simplification, and structural hashing.
func (a *AIG) And(x, y Lit) Lit {
	// Constant and trivial cases.
	switch {
	case x == False || y == False || x == y.Not():
		return False
	case x == True:
		return y
	case y == True:
		return x
	case x == y:
		return x
	}
	if x > y {
		x, y = y, x
	}
	key := [2]Lit{x, y}
	if n, ok := a.strash[key]; ok {
		return MkLit(n, false)
	}
	n := a.addNode(x, y)
	a.strash[key] = n
	return MkLit(n, false)
}

// Or returns the disjunction of two edges.
func (a *AIG) Or(x, y Lit) Lit { return a.And(x.Not(), y.Not()).Not() }

// Xor returns the parity of two edges (two AND nodes).
func (a *AIG) Xor(x, y Lit) Lit {
	return a.Or(a.And(x, y.Not()), a.And(x.Not(), y))
}

// Mux returns s ? t : e.
func (a *AIG) Mux(s, t, e Lit) Lit {
	return a.Or(a.And(s, t), a.And(s.Not(), e))
}

// AndN folds And over a slice (True for empty).
func (a *AIG) AndN(ls []Lit) Lit {
	// Balanced reduction keeps levels logarithmic.
	switch len(ls) {
	case 0:
		return True
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return a.And(a.AndN(ls[:mid]), a.AndN(ls[mid:]))
}

// OrN folds Or over a slice (False for empty).
func (a *AIG) OrN(ls []Lit) Lit {
	outs := make([]Lit, len(ls))
	for i, l := range ls {
		outs[i] = l.Not()
	}
	return a.AndN(outs).Not()
}

// Eval computes all output values under a primary-input assignment.
func (a *AIG) Eval(in []bool) []bool {
	if len(in) != a.numPIs {
		panic(fmt.Sprintf("aig: %d values for %d PIs", len(in), a.numPIs))
	}
	val := make([]bool, len(a.fanin0))
	for i := 0; i < a.numPIs; i++ {
		val[i+1] = in[i]
	}
	lv := func(l Lit) bool { return val[l.Node()] != l.Compl() }
	for n := uint32(a.numPIs + 1); n < uint32(len(a.fanin0)); n++ {
		val[n] = lv(a.fanin0[n]) && lv(a.fanin1[n])
	}
	out := make([]bool, len(a.pos))
	for i, p := range a.pos {
		out[i] = lv(p)
	}
	return out
}

// Levels returns the level (AND depth) of every node.
func (a *AIG) Levels() []int {
	lev := make([]int, len(a.fanin0))
	for n := uint32(a.numPIs + 1); n < uint32(len(a.fanin0)); n++ {
		l0 := lev[a.fanin0[n].Node()]
		l1 := lev[a.fanin1[n].Node()]
		if l1 > l0 {
			l0 = l1
		}
		lev[n] = l0 + 1
	}
	return lev
}

// MaxLevel returns the largest output level.
func (a *AIG) MaxLevel() int {
	lev := a.Levels()
	max := 0
	for _, p := range a.pos {
		if l := lev[p.Node()]; l > max {
			max = l
		}
	}
	return max
}

// SimWords runs 64-way parallel simulation: one word of random patterns
// per PI, returning one word per node. Used for equivalence-candidate
// filtering.
func (a *AIG) SimWords(piWords []uint64) []uint64 {
	w := make([]uint64, len(a.fanin0))
	a.simInto(w, piWords)
	return w
}

// simInto is SimWords writing into w, which holds one word per node.
func (a *AIG) simInto(w, piWords []uint64) {
	if len(piWords) != a.numPIs {
		panic("aig: wrong PI word count")
	}
	for i, v := range piWords {
		w[i+1] = v
	}
	lv := func(l Lit) uint64 {
		v := w[l.Node()]
		if l.Compl() {
			return ^v
		}
		return v
	}
	for n := uint32(a.numPIs + 1); n < uint32(len(a.fanin0)); n++ {
		w[n] = lv(a.fanin0[n]) & lv(a.fanin1[n])
	}
}

// RandomWords draws one 64-bit pattern word per PI.
func (a *AIG) RandomWords(rng *rand.Rand) []uint64 {
	ws := make([]uint64, a.numPIs)
	for i := range ws {
		ws[i] = rng.Uint64()
	}
	return ws
}

// LitWord extracts an edge's value from a node-word vector.
func LitWord(w []uint64, l Lit) uint64 {
	v := w[l.Node()]
	if l.Compl() {
		return ^v
	}
	return v
}

// CNFMap records which solver variable encodes each AIG node, so an
// encoding can be extended cone by cone (Encode) across many calls. The
// zero value is an empty map.
type CNFMap struct {
	vars  []int32       // node -> solver var + 1; 0 = not encoded
	stack []encodeFrame // encode's work stack, kept across calls
}

type encodeFrame struct {
	n    uint32
	emit bool // children encoded; emit the Tseitin clauses
}

// Var returns the solver variable of node n, and whether n is encoded.
func (m *CNFMap) Var(n uint32) (int, bool) {
	if int(n) >= len(m.vars) || m.vars[n] == 0 {
		return 0, false
	}
	return int(m.vars[n] - 1), true
}

// ToCNF encodes the cones of the given edges into s via Tseitin
// transformation and returns the solver literal of each edge, with the
// node-to-variable map for reuse.
func (a *AIG) ToCNF(s *sat.Solver, edges []Lit) (*CNFMap, []sat.Lit) {
	m := &CNFMap{}
	out := make([]sat.Lit, len(edges))
	for i, e := range edges {
		out[i] = a.encode(s, m, e)
	}
	return m, out
}

// Encode adds one more edge's cone to an existing encoding.
func (a *AIG) Encode(s *sat.Solver, m *CNFMap, e Lit) sat.Lit {
	return a.encode(s, m, e)
}

// encode lazily extends the CNF with e's cone. It is iterative (an
// explicit stack) so deeply unrolled cones cannot overflow the
// goroutine stack, but visits nodes in the same pre-order as the
// natural recursion so solver variable numbering is identical.
func (a *AIG) encode(s *sat.Solver, m *CNFMap, e Lit) sat.Lit {
	if v, ok := m.Var(e.Node()); ok {
		return sat.MkLit(v, e.Compl())
	}
	if n := a.NumNodes(); len(m.vars) < n {
		m.vars = append(m.vars, make([]int32, n-len(m.vars))...)
	}
	vars := m.vars
	lit := func(e Lit) sat.Lit { return sat.MkLit(int(vars[e.Node()]-1), e.Compl()) }
	stack := append(m.stack[:0], encodeFrame{n: e.Node()})
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if fr.emit {
			nv := lit(MkLit(fr.n, false))
			f0 := lit(a.fanin0[fr.n])
			f1 := lit(a.fanin1[fr.n])
			// v <-> f0 & f1
			s.AddClause(nv.Not(), f0)
			s.AddClause(nv.Not(), f1)
			s.AddClause(nv, f0.Not(), f1.Not())
			continue
		}
		if vars[fr.n] != 0 {
			continue // reached via an earlier sibling
		}
		v := s.NewVar()
		vars[fr.n] = int32(v) + 1
		switch {
		case a.IsConst(fr.n):
			s.AddClause(sat.MkLit(v, true)) // constant false
		case a.IsPI(fr.n):
			// free variable
		default:
			// Emit after both fanin cones; expand fanin0 first to match
			// the recursive variable order.
			stack = append(stack,
				encodeFrame{n: fr.n, emit: true},
				encodeFrame{n: a.fanin1[fr.n].Node()},
				encodeFrame{n: a.fanin0[fr.n].Node()})
		}
	}
	m.stack = stack
	return lit(e)
}

// FromCircuit converts a purely combinational netlist into an AIG.
// The circuit must have no latches; primary inputs map positionally.
func FromCircuit(c *netlist.Circuit) (*AIG, error) {
	if len(c.Latches) > 0 {
		return nil, fmt.Errorf("aig: circuit %q has %d latches; convert the combinational view", c.Name, len(c.Latches))
	}
	a := New(c.InputNames())
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	lit := make([]Lit, len(c.Nodes))
	for i, id := range c.Inputs {
		lit[id] = a.PI(i)
	}
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind != netlist.KindGate {
			continue
		}
		fins := make([]Lit, len(n.Fanins))
		for j, f := range n.Fanins {
			fins[j] = lit[f]
		}
		lit[id] = a.gateToAIG(n, fins)
	}
	for _, o := range c.Outputs {
		a.AddPO(o.Name, lit[o.Node])
	}
	return a, nil
}

func (a *AIG) gateToAIG(n *netlist.Node, in []Lit) Lit {
	switch n.Op {
	case netlist.OpConst0:
		return False
	case netlist.OpConst1:
		return True
	case netlist.OpBuf:
		return in[0]
	case netlist.OpNot:
		return in[0].Not()
	case netlist.OpAnd:
		return a.AndN(in)
	case netlist.OpNand:
		return a.AndN(in).Not()
	case netlist.OpOr:
		return a.OrN(in)
	case netlist.OpNor:
		return a.OrN(in).Not()
	case netlist.OpXor, netlist.OpXnor:
		r := False
		for _, l := range in {
			r = a.Xor(r, l)
		}
		if n.Op == netlist.OpXnor {
			return r.Not()
		}
		return r
	case netlist.OpMux:
		return a.Mux(in[0], in[1], in[2])
	case netlist.OpTable:
		cubes := make([]Lit, 0, len(n.Cover))
		for _, cu := range n.Cover {
			lits := make([]Lit, 0, len(cu))
			for i := 0; i < len(cu); i++ {
				switch cu[i] {
				case '1':
					lits = append(lits, in[i])
				case '0':
					lits = append(lits, in[i].Not())
				}
			}
			cubes = append(cubes, a.AndN(lits))
		}
		return a.OrN(cubes)
	}
	panic("aig: unknown op " + n.Op.String())
}

// ToCircuit converts the AIG back to a netlist of AND/NOT gates. Node
// names are synthesized; PO names are preserved.
func (a *AIG) ToCircuit(name string) *netlist.Circuit {
	c := netlist.New(name)
	ids := make([]int, len(a.fanin0))
	var constNode int = -1
	getConst := func() int {
		if constNode < 0 {
			constNode = c.AddGate("aig_const0", netlist.OpConst0)
		}
		return constNode
	}
	for i, pn := range a.piNames {
		ids[i+1] = c.AddInput(pn)
	}
	// Track which nodes are actually referenced by POs (cone extraction).
	needed := make([]bool, len(a.fanin0))
	var mark func(n uint32)
	mark = func(n uint32) {
		if needed[n] {
			return
		}
		needed[n] = true
		if !a.IsPI(n) && !a.IsConst(n) {
			mark(a.fanin0[n].Node())
			mark(a.fanin1[n].Node())
		}
	}
	for _, p := range a.pos {
		mark(p.Node())
	}
	notCache := make(map[int]int)
	edge := func(l Lit) int {
		n := l.Node()
		var base int
		if a.IsConst(n) {
			base = getConst()
		} else {
			base = ids[n]
		}
		if !l.Compl() {
			return base
		}
		if inv, ok := notCache[base]; ok {
			return inv
		}
		inv := c.AddGate(fmt.Sprintf("aig_inv%d", base), netlist.OpNot, base)
		notCache[base] = inv
		return inv
	}
	for n := uint32(a.numPIs + 1); n < uint32(len(a.fanin0)); n++ {
		if !needed[n] {
			continue
		}
		ids[n] = c.AddGate(fmt.Sprintf("aig_and%d", n), netlist.OpAnd,
			edge(a.fanin0[n]), edge(a.fanin1[n]))
	}
	for i, p := range a.pos {
		c.AddOutput(a.poNames[i], edge(p))
	}
	return c
}

// ConeSize returns the number of AND nodes in the cone of the edge.
func (a *AIG) ConeSize(e Lit) int {
	seen := make(map[uint32]bool)
	var rec func(n uint32) int
	rec = func(n uint32) int {
		if seen[n] || a.IsPI(n) || a.IsConst(n) {
			return 0
		}
		seen[n] = true
		return 1 + rec(a.fanin0[n].Node()) + rec(a.fanin1[n].Node())
	}
	return rec(e.Node())
}

// Support returns the PI indices the edge's cone depends on.
func (a *AIG) Support(e Lit) []int {
	seen := make(map[uint32]bool)
	var sup []int
	var rec func(n uint32)
	rec = func(n uint32) {
		if seen[n] {
			return
		}
		seen[n] = true
		if a.IsPI(n) {
			sup = append(sup, int(n)-1)
			return
		}
		if a.IsConst(n) {
			return
		}
		rec(a.fanin0[n].Node())
		rec(a.fanin1[n].Node())
	}
	rec(e.Node())
	return sup
}
