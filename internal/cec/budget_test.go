package cec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"seqver/internal/netlist"
)

// multiplier builds an n x n array multiplier (ripple-carry partial
// product accumulation). The reverse flag accumulates the rows in the
// opposite order: the function is identical (addition commutes) but the
// two circuits share no internal structure, which makes the pair's
// output miters hard for both SAT and BDDs at moderate n — the in-test
// stand-in for a Table-1-scale hard miter (the cec package cannot
// import internal/bench without a cycle).
func multiplier(n int, reverse bool) *netlist.Circuit {
	c := netlist.New("mul")
	for k, p := range addMultiplier(c, "", n, reverse) {
		c.AddOutput(fmt.Sprintf("p%d", k), p)
	}
	return c
}

// addMultiplier adds one n x n array multiplier over fresh inputs
// prefix+"a<i>" and prefix+"b<i>" to c and returns its 2n product bits.
func addMultiplier(c *netlist.Circuit, prefix string, n int, reverse bool) []int {
	a := make([]int, n)
	b := make([]int, n)
	for i := 0; i < n; i++ {
		a[i] = c.AddInput(fmt.Sprintf("%sa%d", prefix, i))
	}
	for i := 0; i < n; i++ {
		b[i] = c.AddInput(fmt.Sprintf("%sb%d", prefix, i))
	}
	zero := c.AddGate("", netlist.OpConst0)
	sum := make([]int, 2*n)
	for k := range sum {
		sum[k] = zero
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
		if reverse {
			rows[i] = n - 1 - i
		}
	}
	for _, i := range rows {
		carry := zero
		for j := 0; j < n; j++ {
			pp := c.AddGate("", netlist.OpAnd, a[i], b[j])
			k := i + j
			s1 := c.AddGate("", netlist.OpXor, sum[k], pp)
			s2 := c.AddGate("", netlist.OpXor, s1, carry)
			c1 := c.AddGate("", netlist.OpAnd, sum[k], pp)
			c2 := c.AddGate("", netlist.OpAnd, s1, carry)
			carry = c.AddGate("", netlist.OpOr, c1, c2)
			sum[k] = s2
		}
		for k := i + n; k < 2*n; k++ {
			s := c.AddGate("", netlist.OpXor, sum[k], carry)
			carry = c.AddGate("", netlist.OpAnd, sum[k], carry)
			sum[k] = s
		}
	}
	return sum
}

// TestBudgetDeadline pins the graceful-degradation guarantee: on a hard
// miter pair, Check under a 20ms wall-clock budget returns a structured
// Undecided verdict within ~2x the budget instead of hanging. The
// cancellation paths poll at conflict/decision boundaries (sat), node
// creation (bdd), and merge-loop ticks (fraig), so the latency past the
// deadline is bounded by one poll interval, not one proof.
func TestBudgetDeadline(t *testing.T) {
	c1 := multiplier(8, false)
	c2 := multiplier(8, true)
	const budget = 20 * time.Millisecond
	for _, engine := range []string{"hybrid", "portfolio", "bdd"} {
		start := time.Now()
		res, err := Check(c1, c2, Options{Engine: engine, Budget: budget, Workers: 1})
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		if res.Verdict != Undecided {
			t.Fatalf("engine %s: verdict %v, want undecided under %v budget", engine, res.Verdict, budget)
		}
		if len(res.UndecidedOutputs) == 0 {
			t.Fatalf("engine %s: undecided verdict with empty UndecidedOutputs", engine)
		}
		if res.Stats.BudgetNS != budget.Nanoseconds() {
			t.Fatalf("engine %s: BudgetNS %d not recorded", engine, res.Stats.BudgetNS)
		}
		// The acceptance bound is 2x the budget; a little absolute slack
		// absorbs scheduler noise on loaded CI machines.
		if limit := 2*budget + 30*time.Millisecond; elapsed > limit {
			t.Fatalf("engine %s: returned after %v, want <= %v", engine, elapsed, limit)
		}
	}
}

// TestBudgetNeverFlipsVerdict pins "budget-dependent but never wrong":
// an easy equivalent pair is proven without a budget, and any budget may
// only degrade that to Undecided — never to Inequivalent.
func TestBudgetNeverFlipsVerdict(t *testing.T) {
	c1 := multiplier(3, false)
	c2 := multiplier(3, true)
	res, err := Check(c1, c2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("unbudgeted verdict %v, want equivalent", res.Verdict)
	}
	for _, budget := range []time.Duration{time.Microsecond, 50 * time.Microsecond, 2 * time.Millisecond} {
		res, err := Check(c1, c2, Options{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == Inequivalent {
			t.Fatalf("budget %v flipped an equivalent pair to inequivalent: %+v", budget, res)
		}
		if res.Verdict == Undecided && len(res.UndecidedOutputs) == 0 {
			t.Fatalf("budget %v: undecided without UndecidedOutputs", budget)
		}
	}
}

// TestPortfolioDeterminism pins the race-semantics contract: both
// engines are exact, so the verdict is independent of the worker count
// and of which arm is launched first (losing a race changes timing and
// stats, never the answer).
func TestPortfolioDeterminism(t *testing.T) {
	eq1, eq2 := multiplier(4, false), multiplier(4, true)
	ineq1, ineq2 := xorPair(false)
	saved := portfolioOrder
	defer func() { portfolioOrder = saved }()
	for _, pair := range []struct {
		name   string
		c1, c2 *netlist.Circuit
		want   Verdict
	}{
		{"equivalent", eq1, eq2, Equivalent},
		{"inequivalent", ineq1, ineq2, Inequivalent},
	} {
		for _, order := range [][]string{{"sat", "bdd"}, {"bdd", "sat"}} {
			portfolioOrder = order
			for _, workers := range []int{1, 2, 4} {
				res, err := Check(pair.c1, pair.c2, Options{
					Engine: "portfolio", Workers: workers, SimRounds: -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict != pair.want {
					t.Fatalf("%s pair, order %v, workers %d: verdict %v, want %v",
						pair.name, order, workers, res.Verdict, pair.want)
				}
				if res.Verdict == Inequivalent {
					assertGenuineCex(t, pair.c1, pair.c2, res)
				}
			}
		}
	}
}

// TestPortfolioStatsRecorded checks that a portfolio run on miters the
// fraig stage cannot collapse records per-engine outcomes: every raced
// miter is attributed to a winning engine (or counted unresolved), and
// the seqver -stats rendering includes the portfolio line.
func TestPortfolioStatsRecorded(t *testing.T) {
	// A 6x6 multiplier pair: the middle product bits are out of reach for
	// the fraig stage's 1000-conflict proofs, so those miters reach the
	// worker pool and are actually raced (the 12-input BDD cones decide
	// them quickly).
	c1 := multiplier(6, false)
	c2 := multiplier(6, true)
	res, err := Check(c1, c2, Options{Engine: "portfolio", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Equivalent {
		t.Fatalf("verdict %v, want equivalent", res.Verdict)
	}
	p := res.Stats.Portfolio
	if p == nil {
		t.Fatal("portfolio engine left Stats.Portfolio nil")
	}
	raced := 0
	for _, o := range res.Stats.PerOutput {
		if o.Status == "structural" {
			continue
		}
		raced++
		if o.Engine != "sat" && o.Engine != "bdd" {
			t.Fatalf("raced miter %s decided by engine %q", o.Name, o.Engine)
		}
	}
	if raced == 0 {
		t.Fatal("fraig collapsed every miter structurally; no race to account")
	}
	if p.SATWins+p.BDDWins+p.Unresolved != raced {
		t.Fatalf("portfolio accounting %+v does not cover %d raced miters", p, raced)
	}
	if !strings.Contains(res.Stats.String(), "portfolio:") {
		t.Fatalf("stats rendering missing portfolio line:\n%s", res.Stats.String())
	}
}

// TestPanicRecovery pins the degradation contract for crashing proofs:
// a panic injected into one miter's proof (via the test-only hook)
// degrades that output to undecided with the stack captured in
// Stats.Panics, while every other output is still decided normally.
func TestPanicRecovery(t *testing.T) {
	const poisoned = "p7"
	testMiterHook = func(output string) {
		if output == poisoned {
			panic("injected miter crash")
		}
	}
	defer func() { testMiterHook = nil }()
	// The poisoned output is a middle product bit of the 6x6 multiplier
	// pair: fraig's 1000-conflict proofs cannot merge it, so it reaches
	// proveOne and is guaranteed to crash (an output fraig discharges
	// structurally never reaches the hook).
	c1 := multiplier(6, false)
	c2 := multiplier(6, true)
	for _, engine := range []string{"hybrid", "portfolio"} {
		for _, workers := range []int{1, 2} {
			res, err := Check(c1, c2, Options{Engine: engine, Workers: workers, SimRounds: -1})
			if err != nil {
				t.Fatalf("engine %s workers %d: %v", engine, workers, err)
			}
			if res.Verdict != Undecided {
				t.Fatalf("engine %s workers %d: verdict %v, want undecided", engine, workers, res.Verdict)
			}
			found := false
			for _, name := range res.UndecidedOutputs {
				if name == poisoned {
					found = true
				} else {
					t.Fatalf("engine %s workers %d: unpoisoned output %s undecided", engine, workers, name)
				}
			}
			if !found {
				t.Fatalf("engine %s workers %d: %s missing from UndecidedOutputs %v",
					engine, workers, poisoned, res.UndecidedOutputs)
			}
			if len(res.Stats.Panics) == 0 {
				t.Fatalf("engine %s workers %d: no PanicRecord captured", engine, workers)
			}
			rec := res.Stats.Panics[0]
			if rec.Output != poisoned || !strings.Contains(rec.Value, "injected miter crash") || rec.Stack == "" {
				t.Fatalf("engine %s workers %d: bad panic record %+v", engine, workers, rec)
			}
			for _, o := range res.Stats.PerOutput {
				if o.Name == poisoned && o.Status != "panic" {
					t.Fatalf("engine %s workers %d: poisoned output status %q", engine, workers, o.Status)
				}
			}
		}
	}
}
