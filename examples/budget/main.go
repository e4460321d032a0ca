// Budget: graceful degradation under a wall-clock budget. A hard
// combinational miter (two 8x8 array multipliers accumulating their
// partial products in opposite row orders — equal functions, disjoint
// structure) is checked twice: the default engine under a 50ms budget
// returns the structured Undecided verdict listing the unresolved
// outputs, and the bdd engine proves equivalence. Verdicts are
// budget-dependent but never wrong.
//
//	go run ./examples/budget
package main

import (
	"fmt"
	"log"
	"time"

	"seqver"
)

// multiplier builds an n x n ripple-carry array multiplier; reverse
// flips the partial-product accumulation order.
func multiplier(n int, reverse bool) *seqver.Circuit {
	c := seqver.NewCircuit("mul")
	a := make([]int, n)
	b := make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = c.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := 0; i < n; i++ {
		b[i] = c.AddInput(fmt.Sprintf("b%d", i))
	}
	zero := c.AddGate("", seqver.OpConst0)
	sum := make([]int, 2*n)
	for k := range sum {
		sum[k] = zero
	}
	for r := 0; r < n; r++ {
		i := r
		if reverse {
			i = n - 1 - r
		}
		carry := zero
		for j := 0; j < n; j++ {
			pp := c.AddGate("", seqver.OpAnd, a[i], b[j])
			k := i + j
			s1 := c.AddGate("", seqver.OpXor, sum[k], pp)
			s2 := c.AddGate("", seqver.OpXor, s1, carry)
			c1 := c.AddGate("", seqver.OpAnd, sum[k], pp)
			c2 := c.AddGate("", seqver.OpAnd, s1, carry)
			carry = c.AddGate("", seqver.OpOr, c1, c2)
			sum[k] = s2
		}
		for k := i + n; k < 2*n; k++ {
			s := c.AddGate("", seqver.OpXor, sum[k], carry)
			carry = c.AddGate("", seqver.OpAnd, sum[k], carry)
			sum[k] = s
		}
	}
	for k := 0; k < 2*n; k++ {
		c.AddOutput(fmt.Sprintf("p%d", k), sum[k])
	}
	return c
}

func main() {
	c1 := multiplier(8, false)
	c2 := multiplier(8, true)

	// Under a 50ms budget the default engine cannot prove the hard
	// middle product bits: the check returns promptly with Undecided and
	// names what is left.
	res, err := seqver.CheckCombinational(c1, c2, seqver.CECOptions{
		Budget: 50 * time.Millisecond,
	})
	must(err)
	fmt.Printf("budget 50ms:  %v in %v (%d outputs unresolved: %v ...)\n",
		res.Verdict, res.Elapsed.Round(time.Millisecond),
		len(res.UndecidedOutputs), res.UndecidedOutputs[:min(3, len(res.UndecidedOutputs))])
	if res.Verdict != seqver.Undecided {
		log.Fatal("budget: expected Undecided under a 50ms budget")
	}

	// Multiplier cones are where BDDs beat resolution: the bdd engine
	// builds each product bit's function over the 16 inputs directly and
	// proves every output in well under a second, while the default
	// engine's SAT probes still leave middle product bits undecided
	// after seconds.
	res, err = seqver.CheckCombinational(c1, c2, seqver.CECOptions{
		Engine: "bdd",
		Budget: 5 * time.Minute,
	})
	must(err)
	fmt.Printf("engine bdd:   %v in %v\n", res.Verdict, res.Elapsed.Round(time.Millisecond))
	if res.Verdict != seqver.Equivalent {
		log.Fatal("budget: expected Equivalent from the bdd engine")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
