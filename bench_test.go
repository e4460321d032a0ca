// Benchmarks regenerating the paper's evaluation artifacts. One
// testing.B target exists per table/figure, plus the ablations DESIGN.md
// calls out. `go test -bench=. -benchmem` prints the series; cmd/table1
// and cmd/table2 print the full tables in the paper's layout.
package seqver_test

import (
	"fmt"
	"testing"

	"seqver"
	"seqver/internal/bench"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/explicit"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/seqbdd"
	"seqver/internal/synth"
)

// --- Table 1: the full per-circuit flow (Figure 19) ------------------

// BenchmarkTable1Row runs the complete experiment (prepare, optimize
// five ways, unroll, verify) for representative Table 1 circuits of
// increasing size.
func BenchmarkTable1Row(b *testing.B) {
	for _, name := range []string{"s1196", "s1269", "prolog", "s3384"} {
		sp, ok := findSpec(name)
		if !ok {
			b.Fatalf("unknown spec %s", name)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := bench.RunTable1Row(sp, bench.Table1Options{})
				if err != nil {
					b.Fatal(err)
				}
				if row.Verdict != cec.Equivalent {
					b.Fatalf("verdict %v", row.Verdict)
				}
			}
		})
	}
}

func findSpec(name string) (bench.Spec, bool) {
	for _, sp := range bench.Table1Specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return bench.Spec{}, false
}

// BenchmarkTable1Verify isolates the verification step (columns "H vs
// J"): CBF unrolling of B and the optimized C is done once, the
// combinational check is timed.
func BenchmarkTable1Verify(b *testing.B) {
	for _, name := range []string{"s1269", "s3384", "s9234"} {
		sp, _ := findSpec(name)
		b.Run(name, func(b *testing.B) {
			h, j := prepareHJ(b, sp)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cec.Check(h, j, cec.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != cec.Equivalent {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
	}
}

func prepareHJ(b *testing.B, sp bench.Spec) (*netlist.Circuit, *netlist.Circuit) {
	b.Helper()
	a := bench.Generate(sp)
	prep, err := core.Prepare(a, core.PrepareOptions{})
	if err != nil {
		b.Fatal(err)
	}
	syn, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		b.Fatal(err)
	}
	rt, err := retime.MinPeriod(syn)
	if err != nil {
		b.Fatal(err)
	}
	h, err := cbf.Unroll(prep.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	j, err := cbf.Unroll(rt.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	return h, j
}

// --- Parallel CEC backend: worker sweep -------------------------------

// BenchmarkCheckParallel sweeps the worker count on a multi-output
// miter pair under the default engine: Workers shards the fraig
// signature pass and the stage-1 simulation rounds as well as the
// miter pool, so this measures how far the whole check scales on the
// host. cmd/cecbench runs the same sweep standalone and records the
// series (ns/op, speedup vs 1 worker) in BENCH_cec.json.
func BenchmarkCheckParallel(b *testing.B) {
	sp, _ := findSpec("s3384")
	h, j := prepareHJ(b, sp)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cec.Check(h, j, cec.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict != cec.Equivalent {
					b.Fatalf("verdict %v", res.Verdict)
				}
			}
		})
	}
}

// --- Table 2: exposure on industrial-shaped circuits -----------------

func BenchmarkTable2Row(b *testing.B) {
	for _, name := range []string{"ex2", "ex5", "ex1"} {
		var sp bench.IndustrialSpec
		for _, s := range bench.Table2Specs {
			if s.Name == name {
				sp = s
			}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunTable2Row(sp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 18: CBF materialization (cone replication) ----------------

func BenchmarkFig18Unroll(b *testing.B) {
	for _, stages := range []int{2, 4, 8} {
		c := bench.Pipeline(stages, 8, 7)
		b.Run(fmt.Sprintf("stages%d", stages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cbf.Unroll(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: CEC engines (hybrid vs portfolio vs bdd) ---------------

func BenchmarkCECEngine(b *testing.B) {
	sp, _ := findSpec("s1269")
	h, j := prepareHJ(b, sp)
	for _, engine := range []string{"hybrid", "portfolio", "bdd"} {
		b.Run(engine, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := cec.Check(h, j, cec.Options{Engine: engine})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict == cec.Inequivalent {
					b.Fatal("inequivalent")
				}
			}
		})
	}
}

// --- Baseline cliff: symbolic traversal vs CBF+CEC --------------------

// BenchmarkTraversalVsCBF shows the capacity crossover the paper argues
// from (Section 2): product-machine reachability cost explodes with
// state bits while the CBF reduction stays combinational.
func BenchmarkTraversalVsCBF(b *testing.B) {
	for _, latches := range []int{8, 16, 32} {
		sp := bench.Spec{Name: fmt.Sprintf("cliff%d", latches), Latches: latches, FeedbackFrac: 0}
		c1 := bench.Generate(sp)
		c2 := cloneOptimized(b, c1)
		b.Run(fmt.Sprintf("traversal/%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := seqbdd.CheckResetEquivalence(c1, c2, seqbdd.Options{MaxNodes: 4_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict == seqbdd.Inequivalent {
					b.Fatal("traversal found inequivalence")
				}
			}
		})
		b.Run(fmt.Sprintf("cbf/%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.VerifyAcyclic(c1, c2, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Result.Verdict != cec.Equivalent {
					b.Fatal("cbf verdict wrong")
				}
			}
		})
	}
}

func cloneOptimized(b *testing.B, c *netlist.Circuit) *netlist.Circuit {
	b.Helper()
	o, err := synth.Optimize(c, synth.DefaultScript())
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// --- Substrate benches: retiming and synthesis ------------------------

func BenchmarkRetimeMinPeriod(b *testing.B) {
	for _, latches := range []int{50, 200, 800} {
		sp := bench.Spec{Name: fmt.Sprintf("rt%d", latches), Latches: latches, FeedbackFrac: 0.3}
		a := bench.Generate(sp)
		prep, err := core.Prepare(a, core.PrepareOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := retime.MinPeriod(prep.Circuit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSynthScript(b *testing.B) {
	for _, latches := range []int{50, 200} {
		sp := bench.Spec{Name: fmt.Sprintf("sy%d", latches), Latches: latches, FeedbackFrac: 0.3}
		a := bench.Generate(sp)
		b.Run(fmt.Sprintf("%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := synth.Optimize(a, synth.DefaultScript()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: structural vs unate-aware exposure ---------------------

// BenchmarkUnateAwareExposure measures both preparation modes and
// reports the exposure reduction (Section 8.1 point 5: "these numbers
// will decrease when positive unateness is used").
func BenchmarkUnateAwareExposure(b *testing.B) {
	sp := bench.Spec{Name: "unate", Latches: 120, FeedbackFrac: 0.5}
	a := bench.Generate(sp)
	for _, mode := range []string{"structural", "unateAware"} {
		b.Run(mode, func(b *testing.B) {
			exposed := 0
			for i := 0; i < b.N; i++ {
				prep, err := core.Prepare(a, core.PrepareOptions{UnateAware: mode == "unateAware"})
				if err != nil {
					b.Fatal(err)
				}
				exposed = len(prep.Exposed)
			}
			b.ReportMetric(float64(exposed), "latches-exposed")
		})
	}
}

// --- Ablation: EDBF event rewriting (Eq. 5) ---------------------------

// BenchmarkEDBFRewrite unrolls the Figure 10 circuit pair with and
// without the rewrite rule; the rewrite unifies the events (fewer
// distinct event variables) at the cost of canonicalization work.
func BenchmarkEDBFRewrite(b *testing.B) {
	mk := func(outerEnabled bool) *netlist.Circuit {
		c := netlist.New("f10")
		cin := c.AddInput("c")
		a := c.AddInput("a")
		bb := c.AddInput("b")
		ab := c.AddGate("ab", netlist.OpAnd, a, bb)
		inner := c.AddEnabledLatch("inner", cin, ab)
		if outerEnabled {
			c.AddOutput("o", c.AddEnabledLatch("outer", inner, a))
		} else {
			c.AddOutput("o", c.AddLatch("outer", inner))
		}
		return c
	}
	ca, cb2 := mk(true), mk(false)
	for _, rewrite := range []bool{false, true} {
		name := "off"
		if rewrite {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			events := 0
			for i := 0; i < b.N; i++ {
				cx := edbf.NewCtx()
				cx.Rewrite = rewrite
				if _, err := cx.Unroll(ca); err != nil {
					b.Fatal(err)
				}
				if _, err := cx.Unroll(cb2); err != nil {
					b.Fatal(err)
				}
				events = cx.NumEvents()
			}
			b.ReportMetric(float64(events), "distinct-events")
		})
	}
}

// --- End-to-end public API (the README quickstart path) ---------------

func BenchmarkPublicAPIVerify(b *testing.B) {
	sp := bench.Spec{Name: "api", Latches: 60, FeedbackFrac: 0.4}
	a := bench.Generate(sp)
	prep, err := seqver.Prepare(a, seqver.PrepareOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := seqver.MinPeriodRetime(prep.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := seqver.Synthesize(rt.Circuit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := seqver.VerifyAcyclic(prep.Circuit, opt, seqver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Result.Verdict != seqver.Equivalent {
			b.Fatal("not equivalent")
		}
	}
}

// --- Extension: multi-class retiming (Legl-style per-class passes) ----

// BenchmarkMultiClassRetime exercises the per-class reduction on
// enabled-latch circuits of increasing size (a capability the paper's
// setup lacked entirely).
func BenchmarkMultiClassRetime(b *testing.B) {
	for _, latches := range []int{24, 96} {
		c := multiClassCircuit(latches)
		b.Run(fmt.Sprintf("%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := retime.MinPeriodMulti(c)
				if err != nil {
					b.Fatal(err)
				}
				if res.Period <= 0 {
					b.Fatal("bad period")
				}
			}
		})
	}
}

func multiClassCircuit(latches int) *netlist.Circuit {
	c := netlist.New("mc")
	a := c.AddInput("a")
	bIn := c.AddInput("b")
	le := c.AddInput("le")
	enables := []int{netlist.NoEnable, le}
	cur := []int{a, bIn}
	li := 0
	for li < latches {
		g1 := c.AddGate("", netlist.OpXor, cur[0], cur[1])
		g2 := c.AddGate("", netlist.OpNand, g1, cur[0])
		g3 := c.AddGate("", netlist.OpNot, g2)
		l := c.AddEnabledLatch(fmt.Sprintf("L%d", li), g3, enables[li%2])
		li++
		cur = []int{l, cur[0]}
	}
	c.AddOutput("o", cur[0])
	return c
}

// --- Baseline ladder: explicit vs symbolic vs CBF ----------------------

// BenchmarkBaselineLadder reproduces the paper's Section 2 taxonomy as a
// measurement: explicit enumeration dies first, symbolic traversal later,
// the combinational reduction scales past both.
func BenchmarkBaselineLadder(b *testing.B) {
	for _, latches := range []int{8, 14, 20} {
		sp := bench.Spec{Name: fmt.Sprintf("ladder%d", latches), Latches: latches, FeedbackFrac: 0, Inputs: 6}
		c1 := bench.Generate(sp)
		c2 := cloneOptimized(b, c1)
		b.Run(fmt.Sprintf("explicit/%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := explicit.CheckResetEquivalence(c1, c2, explicit.Options{MaxStates: 1 << 22})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict == explicit.Inequivalent {
					b.Fatal("explicit found inequivalence")
				}
				b.ReportMetric(float64(res.States), "states")
			}
		})
		b.Run(fmt.Sprintf("symbolic/%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := seqbdd.CheckResetEquivalence(c1, c2, seqbdd.Options{MaxNodes: 4_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Verdict == seqbdd.Inequivalent {
					b.Fatal("symbolic found inequivalence")
				}
			}
		})
		b.Run(fmt.Sprintf("cbf/%dL", latches), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := core.VerifyAcyclic(c1, c2, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Result.Verdict != cec.Equivalent {
					b.Fatal("cbf verdict wrong")
				}
			}
		})
	}
}

// --- Industrial circuits: EDBF verification (Table 2 class) ------------

// BenchmarkIndustrialEDBFVerify verifies a Table-2-shaped circuit (all
// load-enabled latches) against its combinationally optimized version via
// the EDBF path — the verification the paper could run on its industrial
// suite even without an enabled-latch retimer.
func BenchmarkIndustrialEDBFVerify(b *testing.B) {
	sp := bench.IndustrialSpec{Name: "edbfbench", Latches: 120, FSMFrac: 0.3, MemFrac: 0.15}
	c := bench.GenerateIndustrial(sp)
	prep, err := core.Prepare(c, core.PrepareOptions{})
	if err != nil {
		b.Fatal(err)
	}
	opt, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := core.VerifyAcyclic(prep.Circuit, opt, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Method != "edbf" || rep.Result.Verdict != cec.Equivalent {
			b.Fatalf("method %s verdict %v", rep.Method, rep.Result.Verdict)
		}
	}
}
