package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode/utf8"
)

// This file implements a reader and writer for a BLIF dialect.
//
// Supported constructs:
//
//	.model <name>
//	.inputs <names...>
//	.outputs <names...>
//	.names <fanins...> <output>     followed by cover rows "<cube> 1"
//	.latch <input> <output> [<type> <control>] [<init>]
//	.end
//
// Extension for load-enabled latches (the paper's latch model): a latch
// whose <type> field is "le" uses <control> as its load-enable signal
// rather than a clock. All other type/control fields are accepted and
// ignored (single-phase single-clock assumption). Initial values are
// accepted and ignored: the verification model assumes a nondeterministic
// power-up state (Section 3.2).

// ParseBLIF reads one .model from r.
//
// The whole input is read into one string; names, cubes and logical
// lines are substrings of it, so parsing allocates per statement only
// where a continuation line must be joined. Statements are counted
// before any node is built, and the circuit is sized once for them.
func ParseBLIF(r io.Reader) (*Circuit, error) {
	var src strings.Builder
	if _, err := io.Copy(&src, r); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	lines := logicalLines(src.String())

	c := New("")
	// Forward references are legal in BLIF, so we record raw statements
	// first and resolve names afterwards. A .names statement keeps the
	// index of its line, whose fields are split again when the gate is
	// built and resolved, and its cover rows cubes[cov0:cov1].
	type rawNames struct {
		line       int // index into lines
		cov0, cov1 int
		onset      bool // cover rows had output value 1
	}
	type rawLatch struct {
		in, out, typ, ctrl string
		line               int
	}
	nNames, nLatches, nRows := 0, 0, 0
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, ".names"):
			nNames++
		case strings.HasPrefix(l, ".latch"):
			nLatches++
		case !strings.HasPrefix(l, "."):
			nRows++
		}
	}
	namesStmts := make([]rawNames, 0, nNames)
	latchStmts := make([]rawLatch, 0, nLatches)
	cubes := make([]Cube, 0, nRows)
	var inputNames, outputNames []string
	var fields []string // scratch, one line's fields
	nFanins := 0

	for li := 0; li < len(lines); li++ {
		fields = appendFields(fields[:0], lines[li])
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				c.Name = fields[1]
			}
		case ".inputs":
			inputNames = append(inputNames, fields[1:]...)
		case ".outputs":
			outputNames = append(outputNames, fields[1:]...)
		case ".names":
			st := rawNames{line: li}
			if len(fields) == 1 {
				return nil, fmt.Errorf("blif line %d: .names needs at least an output", li+1)
			}
			nin := len(fields) - 2
			nFanins += nin
			out := fields[nin+1]
			st.cov0 = len(cubes)
			sawZero, sawOne := false, false
			for li+1 < len(lines) && !strings.HasPrefix(lines[li+1], ".") {
				li++
				row := appendFields(fields[:0], lines[li])
				var cube string
				var val byte
				switch {
				case nin == 0 && len(row) == 1:
					cube, val = "", row[0][0]
				case len(row) == 2:
					cube, val = row[0], row[1][0]
				default:
					return nil, fmt.Errorf("blif line %d: bad cover row %q", li+1, lines[li])
				}
				if len(cube) != nin {
					return nil, fmt.Errorf("blif line %d: cube width %d != %d fanins", li+1, len(cube), nin)
				}
				for i := 0; i < len(cube); i++ {
					switch cube[i] {
					case '0', '1', '-':
					default:
						return nil, fmt.Errorf("blif line %d: bad cube literal %q in %q", li+1, cube[i], cube)
					}
				}
				switch val {
				case '1':
					sawOne = true
				case '0':
					sawZero = true
				default:
					return nil, fmt.Errorf("blif line %d: bad output value %q", li+1, val)
				}
				cubes = append(cubes, Cube(cube))
			}
			if sawZero && sawOne {
				return nil, fmt.Errorf("blif line %d: mixed onset/offset cover for %s", st.line+1, out)
			}
			st.cov1 = len(cubes)
			st.onset = !sawZero
			namesStmts = append(namesStmts, st)
		case ".latch":
			a := fields[1:]
			if len(a) < 2 {
				return nil, fmt.Errorf("blif line %d: .latch needs input and output", li+1)
			}
			rl := rawLatch{in: a[0], out: a[1], line: li + 1}
			rest := a[2:]
			// Optional trailing init value.
			if len(rest) > 0 {
				last := rest[len(rest)-1]
				if last == "0" || last == "1" || last == "2" || last == "3" {
					rest = rest[:len(rest)-1]
				}
			}
			if len(rest) >= 2 {
				rl.typ, rl.ctrl = rest[0], rest[1]
			}
			latchStmts = append(latchStmts, rl)
		case ".end":
			// stop at first model end
			li = len(lines)
		case ".exdc", ".subckt", ".gate", ".mlatch":
			return nil, fmt.Errorf("blif line %d: unsupported construct %s", li+1, fields[0])
		default:
			// Ignore unknown dot-directives (e.g. .clock, .wire_load_slope).
			if !strings.HasPrefix(fields[0], ".") {
				return nil, fmt.Errorf("blif line %d: unexpected line %q", li+1, lines[li])
			}
		}
	}

	// Size the circuit once: every statement is one node, every .names
	// fanin and every latch is one fanin.
	c.grow(len(inputNames)+len(latchStmts)+len(namesStmts), nFanins+len(latchStmts), len(cubes))
	c.Inputs = make([]int, 0, len(inputNames))
	c.Latches = make([]int, 0, len(latchStmts))
	c.Outputs = make([]Output, 0, len(outputNames))

	// Pass 1: declare inputs and latch outputs (the leaves).
	for _, n := range inputNames {
		id, ok := c.tryAdd(Node{Name: n, Kind: KindInput, Enable: NoEnable})
		if !ok {
			return nil, fmt.Errorf("blif: input %q declared twice", n)
		}
		c.Inputs = append(c.Inputs, id)
	}
	for _, rl := range latchStmts {
		// Data and enable resolved in pass 3; reserve the node now.
		id, ok := c.tryAdd(Node{Name: rl.out, Kind: KindLatch, Fanins: c.allocInts(1), Enable: NoEnable})
		if !ok {
			return nil, fmt.Errorf("blif line %d: latch output %q already defined", rl.line, rl.out)
		}
		c.Latches = append(c.Latches, id)
	}
	// Pass 2: declare gate outputs in statement order, fanins resolved
	// later. Gate i is node firstGate+i.
	firstGate := len(c.Nodes)
	for _, st := range namesStmts {
		fields = appendFields(fields[:0], lines[st.line])
		out := fields[len(fields)-1]
		nin := len(fields) - 2
		g := Node{Name: out, Kind: KindGate, Op: OpTable, Enable: NoEnable}
		cover := cubes[st.cov0:st.cov1]
		if !st.onset {
			if c.Lookup(out) >= 0 {
				return nil, fmt.Errorf("blif line %d: signal %q multiply defined", st.line+1, out)
			}
			var err error
			cover, err = complementCover(cover)
			if err != nil {
				return nil, fmt.Errorf("blif line %d: %v", st.line+1, err)
			}
		}
		switch {
		// Canonicalize trivial covers to primitive constants.
		case nin == 0 && len(cover) > 0:
			g.Op = OpConst1
		case nin == 0:
			g.Op = OpConst0
		default:
			g.Fanins = c.allocInts(nin)
			g.Cover = c.cubeSlice(cover)
		}
		if _, ok := c.tryAdd(g); !ok {
			return nil, fmt.Errorf("blif line %d: signal %q multiply defined", st.line+1, out)
		}
	}
	// Pass 3: resolve references.
	resolve := func(name string, line int) (int, error) {
		id := c.Lookup(name)
		if id < 0 {
			return 0, fmt.Errorf("blif line %d: undefined signal %q", line, name)
		}
		return id, nil
	}
	for i, st := range namesStmts {
		g := c.Nodes[firstGate+i]
		fields = appendFields(fields[:0], lines[st.line])
		for j, name := range fields[1 : len(fields)-1] {
			id, err := resolve(name, st.line+1)
			if err != nil {
				return nil, err
			}
			g.Fanins[j] = id
		}
	}
	for i, rl := range latchStmts {
		lid := c.Latches[i]
		din, err := resolve(rl.in, rl.line)
		if err != nil {
			return nil, err
		}
		c.Nodes[lid].Fanins[0] = din
		if rl.typ == "le" {
			en, err := resolve(rl.ctrl, rl.line)
			if err != nil {
				return nil, err
			}
			c.Nodes[lid].Enable = en
		}
	}
	for _, n := range outputNames {
		id := c.Lookup(n)
		if id < 0 {
			return nil, fmt.Errorf("blif: undefined output signal %q", n)
		}
		c.AddOutput(n, id)
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	return c, nil
}

// logicalLines splits BLIF source into its logical lines: '#' comments
// stripped, '\' continuations joined, surrounding space trimmed, blank
// lines dropped. Only joined lines are new strings; the rest are
// substrings of src.
func logicalLines(src string) []string {
	lines := make([]string, 0, strings.Count(src, "\n")+1)
	var cont []byte // pending continuation
	for len(src) > 0 {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimRight(line, " \t\r")
		if strings.HasSuffix(line, "\\") {
			cont = append(cont, line[:len(line)-1]...)
			cont = append(cont, ' ')
			continue
		}
		if len(cont) > 0 {
			line = string(append(cont, line...))
			cont = cont[:0]
		}
		if line = strings.TrimSpace(line); line != "" {
			lines = append(lines, line)
		}
	}
	return lines
}

// appendFields appends the space-separated fields of s to dst, exactly
// as strings.Fields splits them, without allocating a slice per line.
func appendFields(dst []string, s string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		b := s[i]
		switch {
		case b >= utf8.RuneSelf:
			return append(dst[:n], strings.Fields(s)...)
		case asciiSpace[b]:
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// complementCover turns an offset cover (rows with output 0) into an onset
// cover by Shannon expansion. Only practical for narrow tables; BLIF
// offset covers are rare and small in our generators.
func complementCover(cover []Cube) ([]Cube, error) {
	if len(cover) == 0 {
		return nil, nil // offset empty => function is constant 1... but no fanins case handled by caller
	}
	n := len(cover[0])
	if n > 16 {
		return nil, fmt.Errorf("offset cover too wide to complement (%d inputs)", n)
	}
	var onset []Cube
	in := make([]bool, n)
	for m := 0; m < 1<<n; m++ {
		for b := 0; b < n; b++ {
			in[b] = m&(1<<b) != 0
		}
		covered := false
		for _, cu := range cover {
			if cu.Matches(in) {
				covered = true
				break
			}
		}
		if !covered {
			var sb strings.Builder
			for b := 0; b < n; b++ {
				if in[b] {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			onset = append(onset, Cube(sb.String()))
		}
	}
	return onset, nil
}

// WriteBLIF emits the circuit in the BLIF dialect understood by ParseBLIF.
// Unnamed nodes are given synthetic names n<id>.
func WriteBLIF(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	name := func(id int) string {
		n := c.Nodes[id]
		if n.Name != "" {
			return n.Name
		}
		return fmt.Sprintf("n%d", id)
	}
	fmt.Fprintf(bw, ".model %s\n", c.Name)
	fmt.Fprint(bw, ".inputs")
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, " %s", name(id))
	}
	fmt.Fprintln(bw)
	fmt.Fprint(bw, ".outputs")
	outNames := map[string]int{}
	for _, o := range c.Outputs {
		fmt.Fprintf(bw, " %s", o.Name)
		outNames[o.Name] = o.Node
	}
	fmt.Fprintln(bw)
	for _, id := range c.Latches {
		n := c.Nodes[id]
		if n.Enable == NoEnable {
			fmt.Fprintf(bw, ".latch %s %s re clk 3\n", name(n.Data()), name(id))
		} else {
			fmt.Fprintf(bw, ".latch %s %s le %s 3\n", name(n.Data()), name(id), name(n.Enable))
		}
	}
	for _, n := range c.Nodes {
		if n.Kind != KindGate {
			continue
		}
		fmt.Fprint(bw, ".names")
		for _, f := range n.Fanins {
			fmt.Fprintf(bw, " %s", name(f))
		}
		fmt.Fprintf(bw, " %s\n", name(n.ID))
		for _, cu := range GateCover(n) {
			if len(cu) == 0 {
				fmt.Fprintln(bw, "1")
			} else {
				fmt.Fprintf(bw, "%s 1\n", cu)
			}
		}
	}
	// Output aliases: a PO whose name differs from its driver needs a buffer.
	for _, o := range c.Outputs {
		if name(o.Node) != o.Name {
			fmt.Fprintf(bw, ".names %s %s\n1 1\n", name(o.Node), o.Name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// GateCover returns an onset SOP cover for any gate (primitive ops are
// expanded; OpTable covers are returned as-is).
func GateCover(n *Node) []Cube {
	k := len(n.Fanins)
	all := func(b byte) Cube {
		return Cube(strings.Repeat(string(b), k))
	}
	one := func(i int, b byte) Cube {
		s := []byte(strings.Repeat("-", k))
		s[i] = b
		return Cube(s)
	}
	switch n.Op {
	case OpConst0:
		return nil
	case OpConst1:
		return []Cube{""}
	case OpBuf:
		return []Cube{"1"}
	case OpNot:
		return []Cube{"0"}
	case OpAnd:
		return []Cube{all('1')}
	case OpNand:
		var c []Cube
		for i := 0; i < k; i++ {
			c = append(c, one(i, '0'))
		}
		return c
	case OpOr:
		var c []Cube
		for i := 0; i < k; i++ {
			c = append(c, one(i, '1'))
		}
		return c
	case OpNor:
		return []Cube{all('0')}
	case OpXor, OpXnor:
		// Enumerate odd/even parity minterms (k is small in practice).
		var c []Cube
		for m := 0; m < 1<<k; m++ {
			ones := 0
			s := make([]byte, k)
			for b := 0; b < k; b++ {
				if m&(1<<b) != 0 {
					ones++
					s[b] = '1'
				} else {
					s[b] = '0'
				}
			}
			odd := ones%2 == 1
			if (n.Op == OpXor) == odd {
				c = append(c, Cube(s))
			}
		}
		return c
	case OpMux:
		return []Cube{"11-", "0-1"}
	case OpTable:
		return n.Cover
	}
	panic("netlist: GateCover on " + n.Op.String())
}

// ParseBLIFString is a convenience wrapper for tests.
func ParseBLIFString(s string) (*Circuit, error) {
	return ParseBLIF(strings.NewReader(s))
}

// String renders the circuit as BLIF (diagnostic aid).
func (c *Circuit) String() string {
	var sb strings.Builder
	if err := WriteBLIF(&sb, c); err != nil {
		return "<" + err.Error() + ">"
	}
	return sb.String()
}

// Sweep removes gates (and latches, if removeLatches is set) that no
// output transitively depends on, compacting node IDs. It returns the new
// circuit; the original is untouched. Enable signals count as dependencies.
func Sweep(c *Circuit, removeLatches bool) *Circuit {
	live := make([]bool, len(c.Nodes))
	var mark func(id int)
	mark = func(id int) {
		if live[id] {
			return
		}
		live[id] = true
		n := c.Nodes[id]
		for _, f := range n.Fanins {
			mark(f)
		}
		if n.Kind == KindLatch && n.Enable != NoEnable {
			mark(n.Enable)
		}
	}
	for _, o := range c.Outputs {
		mark(o.Node)
	}
	if !removeLatches {
		for _, id := range c.Latches {
			mark(id)
		}
	}
	// Inputs always survive (interface stability).
	for _, id := range c.Inputs {
		live[id] = true
	}

	out := New(c.Name)
	out.grow(arenaNeed(c.Nodes, live))
	remap := make([]int, len(c.Nodes))
	for i := range remap {
		remap[i] = -1
	}
	// Preserve relative order of nodes.
	for _, n := range c.Nodes {
		if !live[n.ID] {
			continue
		}
		id := out.add(out.arenaCopy(n))
		remap[n.ID] = id
		switch n.Kind {
		case KindInput:
			out.Inputs = append(out.Inputs, id)
		case KindLatch:
			out.Latches = append(out.Latches, id)
		}
	}
	for _, n := range out.Nodes {
		for j, f := range n.Fanins {
			n.Fanins[j] = remap[f]
		}
		if n.Kind == KindLatch && n.Enable != NoEnable {
			n.Enable = remap[n.Enable]
		}
	}
	for _, o := range c.Outputs {
		out.Outputs = append(out.Outputs, Output{o.Name, remap[o.Node]})
	}
	return out
}

// OutputNames returns the primary output names in declaration order.
func (c *Circuit) OutputNames() []string {
	names := make([]string, len(c.Outputs))
	for i, o := range c.Outputs {
		names[i] = o.Name
	}
	return names
}

// InputNames returns the primary input names in declaration order.
func (c *Circuit) InputNames() []string {
	names := make([]string, len(c.Inputs))
	for i, id := range c.Inputs {
		names[i] = c.Nodes[id].Name
	}
	return names
}

// SortOutputsByName orders the primary outputs lexicographically; handy
// before comparing two circuits output-by-output.
func (c *Circuit) SortOutputsByName() {
	sort.Slice(c.Outputs, func(i, j int) bool { return c.Outputs[i].Name < c.Outputs[j].Name })
}
