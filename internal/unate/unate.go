// Package unate implements the Section 6 feedback analysis of Ranjan et
// al.: a latch with a feedback path can be re-modeled as a load-enabled
// latch (Figures 12/13) exactly when its next-state function is positive
// unate in the latch variable (Lemma 6.1). The enable is unique
// (e = ¬F_x + F_x̄); the data signal is any function in the interval
// [F_x̄, F_x]. Lemma 6.2 gives the canonical choice when enable and data
// can be given disjoint supports.
package unate

import (
	"context"
	"fmt"

	"seqver/internal/bdd"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Decomposition is the enabled-latch model of a self-feedback latch:
// next(x) = E·D + ¬E·x.
type Decomposition struct {
	Enable bdd.Ref // unique
	DLow   bdd.Ref // F_x̄, the lower limit of the data interval
	DHigh  bdd.Ref // F_x, the upper limit
}

// Decompose applies Lemma 6.1 to a next-state function F over manager m,
// where x is the latch's own variable. It returns the decomposition and
// true when F is positive unate in x; otherwise ok is false.
func Decompose(m *bdd.Manager, F bdd.Ref, x int) (Decomposition, bool) {
	fLo := m.Cofactor(F, x, false) // F_x̄
	fHi := m.Cofactor(F, x, true)  // F_x
	if !m.Leq(fLo, fHi) {
		return Decomposition{}, false // not positive unate in x
	}
	e := m.Or(fHi.Not(), fLo) // ē = F_x · ¬F_x̄
	return Decomposition{Enable: e, DLow: fLo, DHigh: fHi}, true
}

// Verify checks that (e, d) is a correct decomposition: e·d + ¬e·x == F.
func Verify(m *bdd.Manager, F bdd.Ref, x int, e, d bdd.Ref) bool {
	rebuilt := m.Or(m.And(e, d), m.And(e.Not(), m.Var(x)))
	return rebuilt == F
}

// CanonicalData applies Lemma 6.2: if a decomposition exists in which the
// data signal's support is disjoint from the enable's support, that data
// function is unique; return it. ok is false when no such decomposition
// exists (the data interval admits no function independent of the
// enable's support).
func CanonicalData(m *bdd.Manager, dec Decomposition) (bdd.Ref, bool) {
	if dec.Enable == bdd.False {
		// The latch never loads; any constant works — use the lower
		// limit, which in this case equals F everywhere it matters.
		return dec.DLow, true
	}
	sup := m.Support(dec.Enable)
	cube := m.CubeVars(sup)
	// For any enabling assignment s of the enable's support, the data
	// function on the remaining variables is forced to F_x̄(s, ·); it is
	// well defined iff that forcing is consistent across all enabling s.
	d := m.Exists(m.And(dec.Enable, dec.DLow), cube)
	// Validity: d must lie in [DLow, DHigh] and be independent of sup.
	if !m.Leq(dec.DLow, d) || !m.Leq(d, dec.DHigh) {
		return bdd.False, false
	}
	for _, v := range sup {
		if m.Cofactor(d, v, false) != m.Cofactor(d, v, true) {
			return bdd.False, false
		}
	}
	return d, true
}

// LatchFunctions computes, for every latch, the BDD of its next-state
// function over variables assigned to primary inputs and latch outputs.
// The returned varOf maps circuit node IDs (inputs and latches) to BDD
// variables. The circuit's combinational logic must be acyclic (always
// true for well-formed circuits).
func LatchFunctions(c *netlist.Circuit, m *bdd.Manager) (next map[int]bdd.Ref, enable map[int]bdd.Ref, varOf map[int]int, err error) {
	varOf = make(map[int]int)
	for _, id := range c.Inputs {
		varOf[id] = m.AddVar()
	}
	for _, id := range c.Latches {
		varOf[id] = m.AddVar()
	}
	val := make([]bdd.Ref, len(c.Nodes))
	for id, v := range varOf {
		val[id] = m.Var(v)
	}
	if err = bdd.Gates(m, c, val); err != nil {
		return nil, nil, nil, err
	}
	next = make(map[int]bdd.Ref, len(c.Latches))
	enable = make(map[int]bdd.Ref, len(c.Latches))
	for _, id := range c.Latches {
		n := c.Nodes[id]
		d := val[n.Data()]
		if n.Enable == netlist.NoEnable {
			next[id] = d
			enable[id] = bdd.True
		} else {
			e := val[n.Enable]
			enable[id] = e
			// Hardware semantics: next = e·d + ¬e·x.
			next[id] = m.Ite(e, d, m.Var(varOf[id]))
		}
	}
	return next, enable, varOf, nil
}

// SelfLoopReport classifies one latch with a (direct or transitive
// self-) feedback dependency.
type SelfLoopReport struct {
	Latch    int  // latch node ID
	SelfDep  bool // next-state function mentions the latch's own variable
	Unate    bool // positive unate in its own variable (decomposable)
	OtherDep bool // depends on other latch variables too
}

// AnalyzeSelfLoops inspects every latch whose next-state function depends
// on its own output variable and reports whether the Lemma 6.1
// decomposition applies. Latches entangled with other latches (feedback
// cycles of length > 1) are reported with OtherDep set; breaking those
// requires exposure (package feedback).
func AnalyzeSelfLoops(c *netlist.Circuit) ([]SelfLoopReport, error) {
	m := bdd.New(0)
	next, _, varOf, err := LatchFunctions(c, m)
	if err != nil {
		return nil, err
	}
	latchVar := make(map[int]bool)
	for _, id := range c.Latches {
		latchVar[varOf[id]] = true
	}
	var out []SelfLoopReport
	for _, id := range c.Latches {
		F := next[id]
		x := varOf[id]
		sup := m.Support(F)
		rep := SelfLoopReport{Latch: id}
		for _, v := range sup {
			if v == x {
				rep.SelfDep = true
			} else if latchVar[v] {
				rep.OtherDep = true
			}
		}
		if rep.SelfDep {
			rep.Unate = m.PositiveUnate(F, x)
		}
		if rep.SelfDep || rep.OtherDep {
			out = append(out, rep)
		}
	}
	return out, nil
}

// SynthesizeBDD materializes a BDD as mux-tree logic in the circuit,
// using nodeOf to map BDD variables back to circuit nodes. Returns the
// node computing the function. Shared BDD nodes become shared gates.
func SynthesizeBDD(c *netlist.Circuit, m *bdd.Manager, f bdd.Ref, nodeOf map[int]int, prefix string) int {
	memo := make(map[bdd.Ref]int)
	cnt := 0
	var constNode [2]int
	constNode[0], constNode[1] = -1, -1
	getConst := func(v bool) int {
		i := 0
		op := netlist.OpConst0
		if v {
			i, op = 1, netlist.OpConst1
		}
		if constNode[i] < 0 {
			constNode[i] = c.AddGate(fmt.Sprintf("%s_const%d", prefix, i), op)
		}
		return constNode[i]
	}
	var rec func(r bdd.Ref) int
	rec = func(r bdd.Ref) int {
		if r == bdd.True {
			return getConst(true)
		}
		if r == bdd.False {
			return getConst(false)
		}
		if id, ok := memo[r]; ok {
			return id
		}
		// Work on the regular (uncomplemented) node, complement after.
		if r.Not() < r {
			inner := rec(r.Not())
			id := c.AddGate(fmt.Sprintf("%s_n%d", prefix, cnt), netlist.OpNot, inner)
			cnt++
			memo[r] = id
			return id
		}
		sup := m.Support(r)
		v := sup[0] // top variable = lowest index in our ordering
		lo := m.Cofactor(r, v, false)
		hi := m.Cofactor(r, v, true)
		sel, ok := nodeOf[v]
		if !ok {
			panic(fmt.Sprintf("unate: no circuit node for BDD variable %d", v))
		}
		// Children first: rec may allocate gates, and the name counter
		// must reflect that before this gate is named.
		hiNode, loNode := rec(hi), rec(lo)
		id := c.AddGate(fmt.Sprintf("%s_m%d", prefix, cnt), netlist.OpMux, sel, hiNode, loNode)
		cnt++
		memo[r] = id
		return id
	}
	return rec(f)
}

// ModelFeedback rewrites every decomposable self-loop latch of c into the
// Figure 12/13 form: a load-enabled latch whose enable and data cones are
// synthesized from the Lemma 6.1 decomposition (data = lower limit F_x̄,
// the choice the paper recommends to guarantee matching enables, §6
// option (b)). Latches that are not self-loop latches, or not positive
// unate, are left untouched. Returns the rewritten circuit and the IDs
// (in c) of the latches that were re-modeled.
func ModelFeedback(c *netlist.Circuit) (*netlist.Circuit, []int, error) {
	m := bdd.New(0)
	next, _, varOf, err := LatchFunctions(c, m)
	if err != nil {
		return nil, nil, err
	}
	latchVar := make(map[int]bool)
	for _, id := range c.Latches {
		latchVar[varOf[id]] = true
	}
	out := c.Clone()
	nodeOf := make(map[int]int)
	for id, v := range varOf {
		nodeOf[v] = id
	}
	var modeled []int
	for _, id := range c.Latches {
		F := next[id]
		x := varOf[id]
		sup := m.Support(F)
		self, other := false, false
		for _, v := range sup {
			if v == x {
				self = true
			} else if latchVar[v] {
				other = true
			}
		}
		if !self || other {
			continue
		}
		dec, ok := Decompose(m, F, x)
		if !ok {
			continue
		}
		// Synthesize enable and data cones over primary inputs (and any
		// other latch variables, excluded above).
		eNode := SynthesizeBDD(out, m, dec.Enable, nodeOf, fmt.Sprintf("fb_e%d", id))
		dNode := SynthesizeBDD(out, m, dec.DLow, nodeOf, fmt.Sprintf("fb_d%d", id))
		out.SetLatchData(id, dNode)
		out.Nodes[id].Enable = eNode
		modeled = append(modeled, id)
	}
	return out, modeled, nil
}

// ModelFeedbackCtx is ModelFeedback under the context's tracer: a
// "unate.model" span counts how many self-loop latches passed the
// Lemma 6.1 unateness check and were re-modeled.
func ModelFeedbackCtx(ctx context.Context, c *netlist.Circuit) (*netlist.Circuit, []int, error) {
	_, sp := obs.Start1(ctx, "unate.model", obs.S("circuit", c.Name))
	out, modeled, err := ModelFeedback(c)
	if sp != nil {
		if err == nil {
			sp.Count("unate.latches", int64(len(c.Latches)))
			sp.Count("unate.modeled", int64(len(modeled)))
		}
		sp.End()
	}
	return out, modeled, err
}
