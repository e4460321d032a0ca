package bdd

import "seqver/internal/netlist"

// Gate returns the function of netlist gate n over the fanin functions
// in. It is the BDD twin of aig.Gate and does not keep in.
func Gate(m *Manager, n *netlist.Node, in []Ref) Ref {
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
		return m.And(in...)
	case netlist.OpNand:
		return m.And(in...).Not()
	case netlist.OpOr:
		return m.Or(in...)
	case netlist.OpNor:
		return m.Or(in...).Not()
	case netlist.OpXor:
		return m.Xor(in...)
	case netlist.OpXnor:
		return m.Xor(in...).Not()
	case netlist.OpMux:
		return m.Ite(in[0], in[1], in[2])
	case netlist.OpTable:
		sum := False
		for _, cu := range n.Cover {
			prod := True
			for i := 0; i < len(cu); i++ {
				switch cu[i] {
				case '1':
					prod = m.And(prod, in[i])
				case '0':
					prod = m.And(prod, in[i].Not())
				}
			}
			sum = m.Or(sum, prod)
		}
		return sum
	}
	panic("bdd: unknown op " + n.Op.String())
}

// Gates fills val[id] for every gate of c in topological order. The
// caller sets val for the inputs and latches first; val is indexed by
// node ID. It fails only when c has a combinational cycle.
func Gates(m *Manager, c *netlist.Circuit, val []Ref) error {
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	var fins []Ref // reused: Gate does not keep it
	for _, id := range order {
		n := c.Nodes[id]
		if n.Kind != netlist.KindGate {
			continue
		}
		fins = fins[:0]
		for _, f := range n.Fanins {
			fins = append(fins, val[f])
		}
		val[id] = Gate(m, n, fins)
	}
	return nil
}
