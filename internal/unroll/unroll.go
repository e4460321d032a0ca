// Package unroll is the shared back end of the CBF and EDBF unrollings
// (the cone replication of Figure 18). A method's walk records each
// instance it creates — a source gate replicated under one delay or
// event, or a timed input — in post-order, and two emitters read that
// record: Circuit materializes the named combinational netlist, and
// Build adds the instances to a joint AIG (Record implements cec.Side),
// so the check path never builds the named netlist.
package unroll

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"seqver/internal/aig"
	"seqver/internal/feedback"
	"seqver/internal/netlist"
)

// Kinds of instance that are not gates (see inst.fan).
const (
	fanInput = -1 // a timed input: source input node under a key
	fanUndef = -2 // a free variable for a latch that never loads
)

// inst is one replicated source node: node under key (a delay or an
// event id). fan is a gate's offset in Record.fanins, or fanInput or
// fanUndef.
type inst struct {
	node, key, fan int32
}

// Record is one unrolling as its walk built it: every instance in
// post-order, so a gate follows all its fanins, with each source
// output's driving instance. The source is the circuit as the walk read
// it, through a cut: its node IDs, inputs and outputs are the cut's.
type Record struct {
	src    *feedback.Cut
	sep    byte // between a source name and its key: '@' (CBF) or '#' (EDBF)
	insts  []inst
	fanins []int32 // each gate's fanin instances, back to back
	outs   []int32 // per src.Outputs, the driving instance
	gates  int
	inputs []int32 // input instances in emission order, once computed
	buf    []byte  // name's scratch
}

// New starts the record of an unrolling of x whose names join a source
// name and its key with sep.
func New(x *feedback.Cut, sep byte) *Record {
	n := x.NumNodes()
	return &Record{
		src:    x,
		sep:    sep,
		insts:  make([]inst, 0, n),
		fanins: make([]int32, 0, 2*n),
		outs:   make([]int32, 0, len(x.Outputs)),
	}
}

// Input records source input node under key and returns its instance.
func (r *Record) Input(node, key int) int32 {
	return r.add(node, key, fanInput)
}

// Undef records the free variable standing for latch node's power-up
// value under key (a latch whose enable is constant false).
func (r *Record) Undef(node, key int) int32 {
	return r.add(node, key, fanUndef)
}

// Gate records source gate node under key over the fanin instances
// fins, one per source fanin, and returns its instance. It keeps no
// reference to fins.
func (r *Record) Gate(node, key int, fins []int32) int32 {
	fan := int32(len(r.fanins))
	r.fanins = append(r.fanins, fins...)
	r.gates++
	return r.add(node, key, fan)
}

func (r *Record) add(node, key int, fan int32) int32 {
	r.insts = append(r.insts, inst{int32(node), int32(key), fan})
	return int32(len(r.insts) - 1)
}

// Output records the instance driving the next source output.
func (r *Record) Output(i int32) { r.outs = append(r.outs, i) }

// NumGates is the number of gate instances: the unrolled netlist's
// gate count.
func (r *Record) NumGates() int { return r.gates }

// NumInputs is the number of input instances, free variables included.
func (r *Record) NumInputs() int { return len(r.insts) - r.gates }

// MaxKey is the largest key of any instance, 0 for an empty record. On
// a CBF record it is the sequential depth: every longest latch path
// from an output ends at a recorded input or constant gate.
func (r *Record) MaxKey() int {
	k := int32(0)
	for _, x := range r.insts {
		k = max(k, x.key)
	}
	return int(k)
}

// NumFanins is the summed fanin count of the gate instances.
func (r *Record) NumFanins() int { return len(r.fanins) }

// order returns the input instances in emission order: timed inputs by
// (source input declaration, key), then free variables in creation
// order.
func (r *Record) order() []int32 {
	if r.inputs != nil || r.NumInputs() == 0 {
		return r.inputs
	}
	// Bucket the timed inputs by declaration (a counting sort), then
	// sort each bucket, a handful of keys, by key.
	pos := make([]int32, r.src.NumNodes()) // input node -> declaration + 1
	for p, id := range r.src.Inputs {
		pos[id] = int32(p + 1)
	}
	end := make([]int32, len(r.src.Inputs)+1) // per declaration + 1
	for _, x := range r.insts {
		if x.fan == fanInput {
			end[pos[x.node]]++
		}
	}
	n := int32(0)
	for p, k := range end {
		end[p] = n // the bucket's start, until it is filled
		n += k
	}
	ins := make([]int32, n, r.NumInputs())
	for i, x := range r.insts {
		if x.fan == fanInput {
			p := pos[x.node]
			ins[end[p]] = int32(i)
			end[p]++
		}
	}
	for p := 1; p < len(end); p++ {
		slices.SortFunc(ins[end[p-1]:end[p]], func(a, b int32) int {
			return cmp.Compare(r.insts[a].key, r.insts[b].key)
		})
	}
	for i, x := range r.insts {
		if x.fan == fanUndef {
			ins = append(ins, int32(i))
		}
	}
	r.inputs = ins
	return ins
}

// name renders instance i's name, "" for an unnamed gate (see
// appendName).
func (r *Record) name(i int32) string {
	x := r.insts[i]
	if x.fan >= 0 && r.src.Node(int(x.node)).Name == "" {
		return ""
	}
	r.buf = r.appendName(r.buf[:0], i)
	return string(r.buf)
}

// appendName appends instance i's name to b: the source name, the
// separator and the key, with "undef:" before a free variable (whose
// latch, if unnamed, is called n<id> after its ID in the swept
// circuit).
func (r *Record) appendName(b []byte, i int32) []byte {
	x := r.insts[i]
	base := r.src.Node(int(x.node)).Name
	if x.fan == fanUndef {
		b = append(b, "undef:"...)
		if base == "" {
			b = append(b, 'n')
			b = strconv.AppendInt(b, int64(r.src.SweptID(int(x.node))), 10)
		}
	}
	b = append(b, base...)
	b = append(b, r.sep)
	return strconv.AppendInt(b, int64(x.key), 10)
}

// InputNames returns the input names in emission order. They share one
// string's memory: three allocations, however many inputs.
func (r *Record) InputNames() []string {
	ins := r.order()
	ends := make([]int, len(ins))
	b := r.buf[:0]
	for k, i := range ins {
		b = r.appendName(b, i)
		ends[k] = len(b)
	}
	r.buf = b
	all := string(b)
	names := make([]string, len(ins))
	start := 0
	for k, end := range ends {
		names[k] = all[start:end]
		start = end
	}
	return names
}

// OutputNames returns the source output names in declaration order.
func (r *Record) OutputNames() []string { return r.src.OutputNames() }

// Circuit materializes the record as a combinational netlist called
// name: node i is instance i, gates named after their source gate and
// key, inputs in emission order, outputs named as in the source.
func (r *Record) Circuit(name string) (*netlist.Circuit, error) {
	out := netlist.New(name)
	out.Grow(len(r.insts))
	var fins []int
	for i, x := range r.insts {
		if x.fan < 0 {
			out.AddInput(r.name(int32(i)))
			continue
		}
		n := r.src.Node(int(x.node))
		fins = fins[:0]
		for _, f := range r.fanins[x.fan : int(x.fan)+len(n.Fanins)] {
			fins = append(fins, int(f))
		}
		if n.Op == netlist.OpTable {
			out.AddTable(r.name(int32(i)), fins, n.Cover)
		} else {
			out.AddGate(r.name(int32(i)), n.Op, fins...)
		}
	}
	for k, o := range r.src.Outputs {
		out.AddOutput(o.Name, int(r.outs[k]))
	}
	out.Inputs = out.Inputs[:0]
	for _, i := range r.order() {
		out.Inputs = append(out.Inputs, int(i))
	}
	if err := out.Check(); err != nil {
		return nil, fmt.Errorf("internal error, unrolled circuit invalid: %w", err)
	}
	return out, nil
}

// Build adds the record's gates to a, in post-order, over in (one edge
// per input, in emission order), and returns the edge driving each
// source output. Instances meet the AIG exactly as the nodes of
// Circuit's netlist would, so the joint AIG is the one that netlist
// builds.
func (r *Record) Build(a *aig.AIG, in []aig.Lit) ([]aig.Lit, error) {
	lit := make([]aig.Lit, len(r.insts))
	for k, i := range r.order() {
		lit[i] = in[k]
	}
	var fins []aig.Lit // reused: Gate does not keep it
	for i, x := range r.insts {
		if x.fan < 0 {
			continue
		}
		n := r.src.Node(int(x.node))
		fins = fins[:0]
		for _, f := range r.fanins[x.fan : int(x.fan)+len(n.Fanins)] {
			fins = append(fins, lit[f])
		}
		lit[i] = a.Gate(n, fins)
	}
	edges := make([]aig.Lit, len(r.outs))
	for k, i := range r.outs {
		edges[k] = lit[i]
	}
	return edges, nil
}
