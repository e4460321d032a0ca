package netlist

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// snapshot copies every node's fanins and cover.
func snapshot(c *Circuit) (fanins [][]int, covers [][]Cube) {
	for _, n := range c.Nodes {
		fanins = append(fanins, slices.Clone(n.Fanins))
		covers = append(covers, slices.Clone(n.Cover))
	}
	return fanins, covers
}

// TestArenaSlicesStayPrivate: nodes share fanin and cover arenas, so
// each slice is capped at its own length. Appending to one node's
// slices, or reusing them from [:0] as synth's table simplification
// does, must never write into another node's.
func TestArenaSlicesStayPrivate(t *testing.T) {
	build := map[string]func() *Circuit{
		"built": func() *Circuit {
			c := New("arena")
			a, b := c.AddInput("a"), c.AddInput("b")
			g1 := c.AddTable("g1", []int{a, b}, []Cube{"11", "00"})
			g2 := c.AddTable("g2", []int{g1, b}, []Cube{"1-", "-1"})
			g3 := c.AddGate("g3", OpAnd, g1, g2)
			l := c.AddLatch("l", g3)
			c.AddOutput("o", c.AddTable("g4", []int{l, a}, []Cube{"10"}))
			return c
		},
		"parsed": func() *Circuit {
			c, err := ParseBLIFString(toyBLIF)
			if err != nil {
				t.Fatal(err)
			}
			return c
		},
		"clone": func() *Circuit { return buildToy(t).Clone() },
		"sweep": func() *Circuit { return Sweep(buildToy(t), false) },
	}
	for name, mk := range build {
		for victim := range mk().Nodes {
			c := mk()
			fanins, covers := snapshot(c)
			n := c.Nodes[victim]
			n.Fanins = append(n.Fanins, -7, -8)
			n.Cover = append(n.Cover, "x", "y")
			if len(n.Cover) > 2 {
				n.Cover = append(n.Cover[:0], "z")
			}
			if len(n.Fanins) > 2 {
				n.Fanins = append(n.Fanins[:0], -9)
			}
			c.AddGate("late", OpBuf, 0) // the arena keeps handing out slots
			for i, m := range c.Nodes[:len(fanins)] {
				if i == victim {
					continue
				}
				if !slices.Equal(m.Fanins, fanins[i]) || !slices.Equal(m.Cover, covers[i]) {
					t.Fatalf("%s: writing node %d changed node %d: fanins %v cover %v, want %v %v",
						name, victim, i, m.Fanins, m.Cover, fanins[i], covers[i])
				}
			}
		}
	}
}

// TestGrowKeepsCircuit: Grow only reserves room; names, nodes and IDs
// stay as they were, and later adds land in the reserved slab.
func TestGrowKeepsCircuit(t *testing.T) {
	c := buildToy(t)
	want := c.String()
	c.Grow(100)
	if got := c.String(); got != want {
		t.Fatalf("Grow changed the circuit:\n%s\nwant:\n%s", got, want)
	}
	if c.Lookup("g") < 0 || c.Lookup("o") < 0 {
		t.Fatal("Grow lost the name index")
	}
	allocs := testing.AllocsPerRun(1, func() {
		c.AddGate("", OpNot, 0)
	})
	if allocs != 0 {
		t.Fatalf("an unnamed gate after Grow allocated %.0f times, want 0", allocs)
	}
}

// TestAddDuplicateKeepsIndex: a rejected duplicate leaves the name
// bound to its first node.
func TestAddDuplicateKeepsIndex(t *testing.T) {
	c := New("dup")
	a := c.AddInput("a")
	c.AddInput("b")
	if _, ok := c.tryAdd(Node{Name: "a", Kind: KindInput, Enable: NoEnable}); ok {
		t.Fatal("duplicate accepted")
	}
	if c.Lookup("a") != a || c.NumNodes() != 2 {
		t.Fatalf("after a rejected duplicate: Lookup(a) = %d, %d nodes", c.Lookup("a"), c.NumNodes())
	}
}

// bigBLIF renders a random layered circuit of about n gates, half of
// them behind latches, with two-row covers.
func bigBLIF(n int) string {
	rng := rand.New(rand.NewSource(3))
	var b strings.Builder
	b.WriteString(".model big\n.inputs")
	pool := []string{}
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, " i%d", i)
		pool = append(pool, fmt.Sprintf("i%d", i))
	}
	b.WriteString("\n.outputs o\n")
	for g := 0; g < n; g++ {
		x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		fmt.Fprintf(&b, ".names %s %s g%d\n10 1\n01 1\n", x, y, g)
		pool = append(pool, fmt.Sprintf("g%d", g))
		if g%2 == 0 {
			fmt.Fprintf(&b, ".latch g%d q%d re clk 3\n", g, g)
			pool = append(pool, fmt.Sprintf("q%d", g))
		}
	}
	fmt.Fprintf(&b, ".names %s o\n1 1\n.end\n", pool[len(pool)-1])
	return b.String()
}

// TestParseAllocsPerNode: ParseBLIF reads its input into one string and
// sizes the circuit once, so its allocations do not grow with the node
// count.
func TestParseAllocsPerNode(t *testing.T) {
	src := bigBLIF(3000)
	c, err := ParseBLIFString(src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := c.NumNodes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseBLIFString(src); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(nodes); per > 0.05 {
		t.Fatalf("%.0f allocations for %d nodes: %.3f per node, want at most 0.05", allocs, nodes, per)
	} else {
		t.Logf("%.0f allocations for %d nodes (%.4f per node)", allocs, nodes, per)
	}
}

// TestParseReservesBySourceLength: ParseBLIF reserves its statement
// tables from the source's length, a few bytes per source byte, so a
// source of bare newlines, which holds no statement, reserves no more
// than one holding real ones.
func TestParseReservesBySourceLength(t *testing.T) {
	src := strings.Repeat("\n", 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ParseBLIFString(src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// The source is copied once, and the tables take about 3.3 bytes.
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(src)); per > 6 {
		t.Fatalf("parsing %d newlines allocated %.1f bytes per source byte, want at most 6", len(src), per)
	} else {
		t.Logf("%.2f bytes per source byte", per)
	}
}

// TestParseBadCubeLiteral: a cover row with a character outside
// {0,1,-} is a parse error, not a panic.
func TestParseBadCubeLiteral(t *testing.T) {
	_, err := ParseBLIFString(".model m\n.inputs a\n.outputs o\n.names a o\nx 1\n.end\n")
	if err == nil || !strings.Contains(err.Error(), "bad cube literal") {
		t.Fatalf("err = %v, want a bad cube literal error", err)
	}
}

// TestParseContinuationAndComments: continuations join, comments and
// blank lines vanish, CRLF line ends parse.
func TestParseContinuationAndComments(t *testing.T) {
	src := ".model m # comment\r\n.inputs a \\\r\n  b\r\n\r\n.outputs o\r\n.names a b \\\n o\n11 1 # row\n.end\n"
	c, err := ParseBLIFString(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.InputNames(); !slices.Equal(got, []string{"a", "b"}) || c.Name != "m" {
		t.Fatalf("model %q inputs %v", c.Name, got)
	}
	o := c.Nodes[c.MustLookup("o")]
	if len(o.Fanins) != 2 || !slices.Equal(o.Cover, []Cube{"11"}) {
		t.Fatalf("o = %+v", o)
	}
}

// TestParseErrorsNamePhysicalLines: an error names the physical line
// its statement starts on, counting comment lines, blank lines and
// every line of a continued statement before it.
func TestParseErrorsNamePhysicalLines(t *testing.T) {
	for _, tc := range []struct {
		src, want string
	}{
		{"# a comment\n\n.model m\n.inputs a \\\n  b\n.outputs o\n# rows follow\n.names a b o\n1x 1\n.end\n",
			"blif line 9: bad cube literal 'x'"},
		{"# a comment\n\n.model m\n.inputs a\n.outputs o\n.names a \\\n\\\n  o\n1 1\n11 1\n",
			"blif line 10: cube width 2 != 1 fanins"},
		{".model m\n\n.inputs a\n.outputs o\n.names a \\\n  o\n1 1\n0 0\n",
			"blif line 5: mixed onset/offset cover for o"},
		{".model m\n.inputs a\n# c\n\n.latch a \\\n\n", "blif line 5: .latch needs input and output"},
		{"\n\n.model m\n.inputs a\n.outputs o\n.names a q o\n11 1\n", "blif line 6: undefined signal \"q\""},
	} {
		_, err := ParseBLIFString(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("source %q: err = %v, want %q", tc.src, err, tc.want)
		}
	}
}
