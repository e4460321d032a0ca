package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file keeps the BLIF reader as it was before ParseBLIF scanned its
// source once (blifScanner): logical lines first, then every statement split
// again with strings.Fields wherever a pass reads it. FuzzParseBLIF holds
// ParseBLIF to it; only its error line numbers, which count logical
// lines, differ by design.

// referenceParseBLIF reads one .model from src.
func referenceParseBLIF(src string) (*Circuit, error) {
	lines := logicalLines(src)

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
	var fields []string
	nFanins := 0

	for li := 0; li < len(lines); li++ {
		fields = strings.Fields(lines[li])
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
				row := strings.Fields(lines[li])
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
		fields = strings.Fields(lines[st.line])
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
		fields = strings.Fields(lines[st.line])
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

// TestScannerMatchesLogicalLines draws sources from bytes that matter
// to the scan (line ends, comments, continuations, ASCII and Unicode
// spaces, a stray UTF-8 byte and .end) and checks that blifScanner yields
// the statements logicalLines plus strings.Fields does, up to .end.
func TestScannerMatchesLogicalLines(t *testing.T) {
	pieces := []string{" ", "\t", "\r", "\n", "\r\n", "#", "\\", "\v", "\f", "a", "bc", ".", ".end",
		".names", "1", "\u00a0", "\u0085", "\u3000", "\xff", "é"}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		src := sb.String()
		var want [][]string
		for _, l := range logicalLines(src) {
			f := strings.Fields(l)
			want = append(want, f)
			if f[0] == ".end" {
				break
			}
		}
		sc := blifScanner{src: src}
		var got [][]string
		for f, _ := sc.next(); len(f) > 0; f, _ = sc.next() {
			got = append(got, slices.Clone(f))
		}
		if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("source %q:\nblifScanner %q\nreference %q", src, got, want)
		}
	}
}
