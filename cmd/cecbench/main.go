// Command cecbench measures the parallel CEC backend and records the
// perf trajectory: it prepares a multi-output miter pair (a
// Table-1-shaped sequential circuit against its retimed + resynthesized
// version, both CBF-unrolled), times cec.Check across a sweep of worker
// counts, and writes the series to BENCH_cec.json (ns/op per worker
// count plus the speedup over the 1-worker baseline) so successive PRs
// can compare against the same harness.
//
// With -budgets, it additionally sweeps wall-clock budgets on the same
// miter pair (one worker-count column per run) and records, per budget,
// the verdict and how many outputs were left undecided — the graceful-
// degradation ablation of EXPERIMENTS.md (a 0 entry means unbudgeted).
//
// The report schema lives in internal/benchfmt (shared with the
// cmd/benchdiff regression gate). Each worker row records the host's
// GOMAXPROCS and NumCPU and carries an explicit warning when workers
// exceed GOMAXPROCS — such rows measure scheduling overhead, not
// parallel speedup, and benchdiff surfaces the warning next to the
// numbers it explains.
//
// Usage:
//
//	cecbench [-circuit s3384] [-workers 1,2,4,8] [-iters 3] [-count 1]
//	         [-engine hybrid|bdd] [-budgets 5ms,20ms,80ms,0]
//	         [-out BENCH_cec.json]
//
// Each worker row also records the run's allocation profile —
// allocs_per_op / bytes_per_op and the estimated GC pause accrued per
// op, from runtime/metrics deltas around the timed loop — so
// cmd/benchdiff can gate allocation regressions alongside wall clock.
// -count repeats the whole measurement per row; min/max ns/op and the
// spread ratio across every iteration of every repeat quantify the
// harness's run-to-run noise (the benchdiff threshold calibration in
// EXPERIMENTS.md is recomputed from that measured spread).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"seqver/internal/bench"
	"seqver/internal/benchfmt"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

func main() {
	circuit := flag.String("circuit", "s3384", "Table-1 spec name for the miter pair")
	workerList := flag.String("workers", "1,2,4,8", "comma-separated worker counts to sweep")
	iters := flag.Int("iters", 3, "check iterations per worker count")
	count := flag.Int("count", 1, "repeats of the whole measurement per row; spread is recorded across all repeats")
	out := flag.String("out", "BENCH_cec.json", "output JSON path (- for stdout)")
	// The default is cec's default engine, so the committed baseline
	// times the path users run: simulation, the eager fraig sweep, and
	// incremental SAT probes on what the sweep leaves.
	engine := flag.String("engine", "hybrid", "combinational engine: "+cec.EngineNames)
	budgets := flag.String("budgets", "", "comma-separated wall-clock budgets to sweep (e.g. 5ms,20ms,80ms,0; 0: unbudgeted; empty: skip)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to FILE")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cecbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cecbench:", err)
			}
		}()
	}

	h, j, err := prepareHJ(*circuit)
	if err != nil {
		fatal(err)
	}
	if *count < 1 {
		*count = 1
	}
	rep := benchfmt.Report{
		Circuit:    *circuit,
		Engine:     *engine,
		Outputs:    len(h.Outputs),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Count:      *count,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}

	var baseline int64
	for _, field := range strings.Split(*workerList, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || w < 1 {
			fatal(fmt.Errorf("bad worker count %q", field))
		}
		wr := benchfmt.WorkerResult{
			Workers: w, Iters: *iters, MinNSOp: 1<<63 - 1,
			// Recorded per row, not only in the header: rows spliced
			// into other files stay self-describing.
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		}
		if w > wr.GOMAXPROCS {
			wr.Warning = fmt.Sprintf(
				"workers=%d exceeds GOMAXPROCS=%d: row measures scheduling overhead, not parallel speedup", w, wr.GOMAXPROCS)
			fmt.Fprintln(os.Stderr, "cecbench: warning:", wr.Warning)
		}
		var total, pauseNS int64
		var allocBytes, allocObjects uint64
		n := *iters * *count
		for it := 0; it < n; it++ {
			// A fresh fold per iteration so phase_ns reports the last
			// (warmed-up) run rather than a sum across iterations.
			fold := obs.NewPhaseFold()
			ctx := obs.WithTracer(context.Background(), obs.New(fold))
			b0, o0, p0 := obs.MemCounters()
			start := time.Now()
			res, err := cec.CheckCtx(ctx, h, j, cec.Options{Engine: *engine, Workers: w})
			if err != nil {
				fatal(err)
			}
			ns := time.Since(start).Nanoseconds()
			b1, o1, p1 := obs.MemCounters()
			allocBytes += b1 - b0
			allocObjects += o1 - o0
			pauseNS += p1 - p0
			total += ns
			if ns < wr.MinNSOp {
				wr.MinNSOp = ns
			}
			if ns > wr.MaxNSOp {
				wr.MaxNSOp = ns
			}
			wr.SATCalls = res.SATCalls
			wr.Conflicts = res.Stats.Conflicts
			wr.Verdict = res.Verdict.String()
			wr.PhaseNS, wr.PhaseBusyNS = map[string]int64{}, map[string]int64{}
			for _, ph := range fold.Phases() {
				wr.PhaseNS[ph.Name], wr.PhaseBusyNS[ph.Name] = ph.WallNS, ph.BusyNS
			}
			if res.Verdict != cec.Equivalent {
				fatal(fmt.Errorf("workers=%d: verdict %v on equivalent pair", w, res.Verdict))
			}
		}
		wr.MeanNSOp = total / int64(n)
		wr.AllocsPerOp = int64(allocObjects) / int64(n)
		wr.BytesPerOp = int64(allocBytes) / int64(n)
		wr.GCPauseNSOp = pauseNS / int64(n)
		if wr.MinNSOp > 0 {
			wr.SpreadRatio = float64(wr.MaxNSOp) / float64(wr.MinNSOp)
		}
		if baseline == 0 {
			baseline = wr.MinNSOp
		}
		// Guard the ratio: a sub-resolution timer reading must not poison
		// the series with Inf/NaN.
		if wr.MinNSOp > 0 {
			wr.Speedup = float64(baseline) / float64(wr.MinNSOp)
		}
		rep.Results = append(rep.Results, wr)
		fmt.Fprintf(os.Stderr, "workers=%d  %v/op  speedup %.2fx  %dB/op (%d allocs)  spread %.2fx\n",
			w, time.Duration(wr.MinNSOp).Round(time.Microsecond), wr.Speedup,
			wr.BytesPerOp, wr.AllocsPerOp, wr.SpreadRatio)
	}

	if *budgets != "" {
		for _, field := range strings.Split(*budgets, ",") {
			bd, err := time.ParseDuration(strings.TrimSpace(field))
			if strings.TrimSpace(field) == "0" {
				bd, err = 0, nil
			}
			if err != nil || bd < 0 {
				fatal(fmt.Errorf("bad budget %q", field))
			}
			br := benchfmt.BudgetResult{Budget: bd.String(), Iters: *iters}
			if bd == 0 {
				br.Budget = "0"
			}
			var total, max int64
			for it := 0; it < *iters; it++ {
				start := time.Now()
				res, err := cec.Check(h, j, cec.Options{Engine: *engine, Budget: bd})
				if err != nil {
					fatal(err)
				}
				ns := time.Since(start).Nanoseconds()
				total += ns
				if ns > max {
					max = ns
				}
				br.Verdict = res.Verdict.String()
				br.Undecided = len(res.UndecidedOutputs)
				br.SATCalls = res.SATCalls
				// Unlike the worker sweep, Undecided is an expected outcome
				// here — the sweep exists to chart it; Inequivalent on an
				// equivalent pair is still a bug.
				if res.Verdict == cec.Inequivalent {
					fatal(fmt.Errorf("budget=%v: verdict %v on equivalent pair", bd, res.Verdict))
				}
			}
			br.MeanNSOp = total / int64(*iters)
			br.MaxNSOp = max
			rep.BudgetSweep = append(rep.BudgetSweep, br)
			fmt.Fprintf(os.Stderr, "budget=%-6s %v/op  %s (%d undecided)\n",
				br.Budget, time.Duration(br.MeanNSOp).Round(time.Microsecond), br.Verdict, br.Undecided)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

// prepareHJ mirrors the bench harness: generate the spec'd circuit,
// prepare (expose feedback), optimize via retiming + synthesis, and CBF-
// unroll both sides into the combinational pair H vs J of Figure 19.
func prepareHJ(name string) (*netlist.Circuit, *netlist.Circuit, error) {
	var sp bench.Spec
	found := false
	for _, s := range bench.Table1Specs {
		if s.Name == name {
			sp, found = s, true
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("unknown Table-1 spec %q", name)
	}
	a := bench.Generate(sp)
	prep, err := core.Prepare(a, core.PrepareOptions{})
	if err != nil {
		return nil, nil, err
	}
	syn, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		return nil, nil, err
	}
	rt, err := retime.MinPeriod(syn)
	if err != nil {
		return nil, nil, err
	}
	h, err := cbf.Unroll(prep.Circuit)
	if err != nil {
		return nil, nil, err
	}
	j, err := cbf.Unroll(rt.Circuit)
	if err != nil {
		return nil, nil, err
	}
	return h, j, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cecbench:", err)
	os.Exit(1)
}
