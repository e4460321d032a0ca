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

// Source bytes per entry of ParseBLIF's statement tables. Across every
// text of the perfbench corpora (both sides of each industrial_ex5,
// retimed_s3384 and buggy_s3384 pair) the densest file has 32.5 bytes
// per .names statement, 11.4 per .names name, 21.8 per cover row and
// 171 per .latch, so tables reserved at these rates from the source's
// length do not regrow there; denser text grows them by append. The
// reservation is at most about 3.3 bytes per source byte, whatever the
// text holds.
const (
	bytesPerNamesStmt = 32
	bytesPerName      = 11
	bytesPerCube      = 21
	bytesPerLatch     = 160
)

// ParseBLIF reads one .model from r.
//
// The whole input is read into one string and scanned once, statement
// by statement (blifScanner): names and cubes are substrings of it, and
// a .names statement's fields are split once and kept for the passes
// that build and wire its gate. Statements are recorded before any node
// is built, and the circuit is sized once for them. Errors name the
// physical line of a statement's first field.
func ParseBLIF(r io.Reader) (*Circuit, error) {
	var src strings.Builder
	if _, err := io.Copy(&src, r); err != nil {
		return nil, fmt.Errorf("blif: %w", err)
	}
	sc := blifScanner{src: src.String()}

	c := New("")
	// Forward references are legal in BLIF, so we record raw statements
	// first and resolve names afterwards. A .names statement's fanins
	// and output are names[at:at+nin+1], its cover rows cubes[cov0:cov1].
	type rawNames struct {
		at, nin, line, cov0, cov1 int32
		onset                     bool // cover rows had output value 1
	}
	type rawLatch struct {
		in, out, enable string // enable is set for type "le" alone
		line            int
	}
	namesStmts := make([]rawNames, 0, len(sc.src)/bytesPerNamesStmt)
	names := make([]string, 0, len(sc.src)/bytesPerName)
	cubes := make([]Cube, 0, len(sc.src)/bytesPerCube)
	latchStmts := make([]rawLatch, 0, len(sc.src)/bytesPerLatch)
	var inputNames, outputNames []string

	// Cover rows follow their .names statement up to the next statement
	// that starts with a dot; cur is the statement taking them, or -1.
	cur := -1
	sawZero, sawOne := false, false
	endCover := func() error {
		if cur < 0 {
			return nil
		}
		st := &namesStmts[cur]
		if sawZero && sawOne {
			return fmt.Errorf("blif line %d: mixed onset/offset cover for %s", st.line, names[st.at+st.nin])
		}
		st.cov1, st.onset = int32(len(cubes)), !sawZero
		cur, sawZero, sawOne = -1, false, false
		return nil
	}
	for {
		fields, line := sc.next()
		if len(fields) == 0 {
			break
		}
		if fields[0][0] != '.' && cur >= 0 {
			nin := int(namesStmts[cur].nin)
			var cube string
			var val byte
			switch {
			case nin == 0 && len(fields) == 1:
				cube, val = "", fields[0][0]
			case len(fields) == 2:
				cube, val = fields[0], fields[1][0]
			default:
				return nil, fmt.Errorf("blif line %d: bad cover row %q", line, strings.Join(fields, " "))
			}
			if len(cube) != nin {
				return nil, fmt.Errorf("blif line %d: cube width %d != %d fanins", line, len(cube), nin)
			}
			for i := 0; i < len(cube); i++ {
				switch cube[i] {
				case '0', '1', '-':
				default:
					return nil, fmt.Errorf("blif line %d: bad cube literal %q in %q", line, cube[i], cube)
				}
			}
			switch val {
			case '1':
				sawOne = true
			case '0':
				sawZero = true
			default:
				return nil, fmt.Errorf("blif line %d: bad output value %q", line, val)
			}
			cubes = append(cubes, Cube(cube))
			continue
		}
		if err := endCover(); err != nil {
			return nil, err
		}
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
			if len(fields) == 1 {
				return nil, fmt.Errorf("blif line %d: .names needs at least an output", line)
			}
			cur = len(namesStmts)
			namesStmts = append(namesStmts, rawNames{at: int32(len(names)), nin: int32(len(fields) - 2),
				line: int32(line), cov0: int32(len(cubes))})
			names = append(names, fields[1:]...)
		case ".latch":
			a := fields[1:]
			if len(a) < 2 {
				return nil, fmt.Errorf("blif line %d: .latch needs input and output", line)
			}
			rl := rawLatch{in: a[0], out: a[1], line: line}
			rest := a[2:]
			// Optional trailing init value.
			if len(rest) > 0 {
				last := rest[len(rest)-1]
				if last == "0" || last == "1" || last == "2" || last == "3" {
					rest = rest[:len(rest)-1]
				}
			}
			if len(rest) >= 2 && rest[0] == "le" {
				rl.enable = rest[1]
			}
			latchStmts = append(latchStmts, rl)
		case ".exdc", ".subckt", ".gate", ".mlatch":
			return nil, fmt.Errorf("blif line %d: unsupported construct %s", line, fields[0])
		default:
			// Ignore unknown dot-directives (e.g. .clock, .wire_load_slope)
			// and .end, after which the scanner reads nothing.
			if fields[0][0] != '.' {
				return nil, fmt.Errorf("blif line %d: unexpected line %q", line, strings.Join(fields, " "))
			}
		}
	}
	if err := endCover(); err != nil {
		return nil, err
	}

	// Size the circuit once: every statement is one node, every .names
	// fanin and every latch is one fanin.
	c.grow(len(inputNames)+len(latchStmts)+len(namesStmts), len(names)-len(namesStmts)+len(latchStmts), len(cubes))
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
		out := names[st.at+st.nin]
		g := Node{Name: out, Kind: KindGate, Op: OpTable, Enable: NoEnable}
		cover := cubes[st.cov0:st.cov1]
		if !st.onset {
			if c.Lookup(out) >= 0 {
				return nil, fmt.Errorf("blif line %d: signal %q multiply defined", st.line, out)
			}
			var err error
			cover, err = complementCover(cover)
			if err != nil {
				return nil, fmt.Errorf("blif line %d: %v", st.line, err)
			}
		}
		switch {
		// Canonicalize trivial covers to primitive constants.
		case st.nin == 0 && len(cover) > 0:
			g.Op = OpConst1
		case st.nin == 0:
			g.Op = OpConst0
		default:
			g.Fanins = c.allocInts(int(st.nin))
			g.Cover = c.cubeSlice(cover)
		}
		if _, ok := c.tryAdd(g); !ok {
			return nil, fmt.Errorf("blif line %d: signal %q multiply defined", st.line, out)
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
		for j, name := range names[st.at : st.at+st.nin] {
			id, err := resolve(name, int(st.line))
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
		if rl.enable != "" {
			en, err := resolve(rl.enable, rl.line)
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

// blifScanner splits BLIF source into statements, its logical lines,
// in one pass over the bytes: a '#' starts a comment that runs to the
// end of the physical line, a line whose last byte before its comment
// and any trailing spaces, tabs and carriage returns is a '\\'
// continues on the next line, and a statement with no fields is
// skipped. Fields split exactly as strings.Fields splits the joined
// line, and are substrings of the source.
type blifScanner struct {
	src    string
	pos    int      // the first byte not scanned yet
	line   int      // physical lines scanned
	fields []string // the last statement's fields
}

// Byte classes of the scan. A line with a wide byte, 0x80 or above, is
// split by strings.Fields, which also splits at the Unicode spaces.
const (
	byteField = iota
	byteSpace // an ASCII space other than '\n'
	byteNewline
	byteComment
	byteWide
)

var blifByteClass = func() (class [256]uint8) {
	for b := utf8.RuneSelf; b < len(class); b++ {
		class[b] = byteWide
	}
	for _, b := range "\t\v\f\r " {
		class[b] = byteSpace
	}
	class['\n'], class['#'] = byteNewline, byteComment
	return class
}()

// next returns the next statement's fields, valid until the following
// call, and the physical line of its first field. It returns no fields
// at the end of the source and after a statement whose first field is
// .end; a continuation still open at the end of the source is dropped.
func (sc *blifScanner) next() ([]string, int) {
	src, i := sc.src, sc.pos
	sc.fields = sc.fields[:0]
	first := 0
	for i < len(src) {
		sc.line++
		start, n := i, len(sc.fields)
		if n == 0 {
			first = sc.line
		}
		// Split up to the line's end, a comment or a wide byte.
		var class uint8
		for i < len(src) {
			if class = blifByteClass[src[i]]; class == byteSpace {
				i++
				continue
			}
			if class != byteField {
				break
			}
			j := i
			for i < len(src) && blifByteClass[src[i]] == byteField {
				i++
			}
			sc.fields = append(sc.fields, src[j:i])
		}
		end := i // of the line's text before any comment
		if i < len(src) && class != byteNewline {
			i = len(src)
			if k := strings.IndexByte(src[end:], '\n'); k >= 0 {
				i = end + k
			}
			if class == byteWide {
				if k := strings.IndexByte(src[end:i], '#'); k >= 0 {
					end += k
				} else {
					end = i
				}
				sc.fields = append(sc.fields[:n], strings.Fields(src[start:end])...)
			}
		}
		if i < len(src) {
			i++ // the newline
		}
		// Only a line whose last field ends in '\\' can continue; it
		// does if nothing but spaces, tabs and carriage returns follow.
		if k := len(sc.fields) - 1; k >= n && strings.HasSuffix(sc.fields[k], "\\") &&
			strings.HasSuffix(strings.TrimRight(src[start:end], " \t\r"), "\\") {
			if sc.fields[k] = sc.fields[k][:len(sc.fields[k])-1]; sc.fields[k] == "" {
				sc.fields = sc.fields[:k]
			}
			continue
		}
		if len(sc.fields) == 0 {
			continue
		}
		if sc.pos = i; sc.fields[0] == ".end" {
			sc.pos = len(src)
		}
		return sc.fields, first
	}
	sc.pos = i
	return nil, 0
}

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
