package cbf

import (
	"seqver/internal/bdd"
	"seqver/internal/netlist"
)

// FunctionalDepth computes the exact sequential depth of Definition 4:
// the largest delay k at which some primary input actually (not just
// topologically) affects some output. It builds BDDs for the unrolled
// outputs and inspects their true supports, so false dependencies —
// paths that exist structurally but are functionally vacuous — do not
// count. A node budget guards against blowup; on overflow it falls back
// to the topological depth with exact=false.
func FunctionalDepth(c *netlist.Circuit, maxNodes int) (depth int, exact bool, err error) {
	topo, err := SequentialDepth(c)
	if err != nil {
		return 0, false, err
	}
	u, err := Unroll(c)
	if err != nil {
		return 0, false, err
	}
	if maxNodes == 0 {
		maxNodes = 500_000
	}
	m := bdd.New(0)
	m.MaxNodes = maxNodes

	varDelay := make(map[int]int) // BDD variable -> delay
	val := make([]bdd.Ref, len(u.Nodes))
	blowup := bdd.CatchLimit(func() {
		for _, id := range u.Inputs {
			_, k, perr := ParseTimedName(u.Nodes[id].Name)
			if perr != nil {
				err = perr
				return
			}
			v := m.AddVar()
			varDelay[v] = k
			val[id] = m.Var(v)
		}
		if err = bdd.Gates(m, u, val); err != nil {
			return
		}
		for _, o := range u.Outputs {
			for _, v := range m.Support(val[o.Node]) {
				if k := varDelay[v]; k > depth {
					depth = k
				}
			}
		}
	})
	if err != nil {
		return 0, false, err
	}
	if blowup != nil {
		return topo, false, nil
	}
	return depth, true, nil
}
