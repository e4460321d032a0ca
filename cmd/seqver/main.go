// Command seqver checks sequential equivalence of two BLIF circuits
// using the paper's CBF/EDBF reduction to combinational verification.
//
// Usage:
//
//	seqver [-acyclic] [-rewrite] [-engine hybrid|bdd]
//	       [-budget DUR] [-workers N] [-sim-rounds N] [-sim-words N]
//	       [-stats] [-stats-json FILE] [-trace FILE] [-trace-format F]
//	       [-progress] [-cpuprofile FILE] [-memprofile FILE]
//	       [-debug-addr ADDR] [-debug-linger DUR]
//	       [-flight] [-flight-events N] [-flight-dir DIR]
//	       golden.blif revised.blif
//
// Without -acyclic, feedback latches are exposed (by name, consistently
// on both sides) before unrolling; with it both circuits must already be
// feedback-free.
//
// -trace FILE records the run as a span/counter event stream: one JSON
// object per line with -trace-format jsonl (the schema is validated by
// cmd/tracelint), or a Chrome trace_event file with -trace-format
// chrome (open in chrome://tracing or https://ui.perfetto.dev).
// -progress renders coarse phase progress to stderr while the check
// runs. -cpuprofile/-memprofile write pprof profiles; compare two runs'
// captures with `go tool pprof -top -diff_base=OLD NEW`.
//
// -debug-addr ADDR serves live introspection over HTTP while the check
// grinds: /metrics (Prometheus text exposition of the aggregate
// counters, gauges, and phase-latency histograms), /healthz, expvar at
// /debug/vars, and the full net/http/pprof suite. -debug-linger keeps
// the server up after the verdict so short runs can still be scraped.
//
// The flight recorder (-flight, on by default) keeps a bounded ring of
// the last -flight-events trace events at negligible cost; when a run
// ends Undecided, errors out, or recovers a worker panic, the ring is
// dumped to seqver-flight-<timestamp>.jsonl in -flight-dir — a
// schema-valid trace (cmd/tracelint accepts it) of the run's last
// moments, the post-mortem for "why did this output time out".
//
// -submit URL runs the same check on a seqverd daemon instead of in
// process: both BLIF files are posted as one job, the verdict is polled
// and printed, and the exit code contract below is preserved (a repeat
// submission of an already-decided pair is answered from the daemon's
// result cache). The engine flags (-engine, -budget,
// -workers, -max-conflicts, -acyclic, -rewrite, -unate) travel with the
// job; local-only flags (-trace, -progress, profiling) are ignored in
// submit mode.
//
// Exit codes: 0 the circuits are equivalent; 1 they are inequivalent
// (a counterexample was found); 2 the verdict is undecided (resource
// budget exhausted — rerun with a larger -budget or -max-conflicts);
// 3 usage or input errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"seqver"
	"seqver/internal/cec"
	"seqver/internal/metrics"
	"seqver/internal/obs"
	"seqver/internal/serve"
)

func main() { os.Exit(run()) }

func run() int {
	acyclic := flag.Bool("acyclic", false, "circuits are already feedback-free")
	rewrite := flag.Bool("rewrite", false, "enable Eq. 5 event rewriting (EDBF path)")
	engine := flag.String("engine", "hybrid", "combinational engine: "+cec.EngineNames)
	budget := flag.Duration("budget", 0, "wall-clock budget for the equivalence check (e.g. 500ms, 10s; 0: unbudgeted)")
	unateAware := flag.Bool("unate", false, "re-model positive-unate self-loops before exposing")
	workers := flag.Int("workers", 0, "parallel miter/simulation workers (0: GOMAXPROCS)")
	simRounds := flag.Int("sim-rounds", 0, "stage-1 random simulation rounds (0: default 8, negative: skip)")
	simWords := flag.Int("sim-words", 0, "64-pattern words per simulation round (0: default 4)")
	maxConflicts := flag.Int64("max-conflicts", 0, "SAT conflict budget per miter (0: default 200000)")
	stats := flag.Bool("stats", false, "print per-stage engine statistics")
	statsJSON := flag.String("stats-json", "", "write run envelope + engine statistics as JSON to FILE (- for stdout)")
	trace := flag.String("trace", "", "write a trace of the run to FILE")
	traceFormat := flag.String("trace-format", "jsonl", "trace format: jsonl (one event per line) or chrome (chrome://tracing)")
	progress := flag.Bool("progress", false, "render phase progress to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to FILE")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to FILE")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz, /debug/vars, /debug/pprof on ADDR (e.g. :8080) during the run")
	debugLinger := flag.Duration("debug-linger", 0, "keep the -debug-addr server up for DUR after the verdict (0: exit immediately)")
	flight := flag.Bool("flight", true, "flight recorder: ring-buffer the trace; dump it on undecided, error, or recovered panic")
	flightEvents := flag.Int("flight-events", obs.DefaultRingSize, "flight recorder capacity in events")
	flightDir := flag.String("flight-dir", ".", "directory for flight-recorder dumps")
	submit := flag.String("submit", "", "submit the job to a seqverd daemon at URL instead of checking in process")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: seqver [flags] golden.blif revised.blif")
		flag.PrintDefaults()
		return 3
	}
	if !cec.ValidEngine(*engine) {
		return fail(fmt.Errorf("unknown engine %q (want %s)", *engine, cec.EngineNames))
	}

	if *submit != "" {
		return submitRemote(*submit, flag.Arg(0), flag.Arg(1), &serve.JobRequest{
			Engine:       *engine,
			BudgetMS:     budget.Milliseconds(),
			Workers:      *workers,
			MaxConflicts: *maxConflicts,
			Acyclic:      *acyclic, Rewrite: *rewrite, Unate: *unateAware,
		})
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
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
				fmt.Fprintln(os.Stderr, "seqver:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "seqver:", err)
			}
		}()
	}

	ctx := context.Background()

	// Live debug endpoint: the registry aggregates across the whole
	// process lifetime and is scraped while the check grinds.
	var dbg *metrics.DebugServer
	var reg *metrics.Registry
	if *debugAddr != "" {
		reg = metrics.NewRegistry()
		var err error
		dbg, err = metrics.StartDebugServer(*debugAddr, reg)
		if err != nil {
			return fail(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "seqver: debug server on http://%s (/metrics /healthz /debug/vars /debug/pprof)\n", dbg.Addr)
	}

	tracer, ring, err := buildTracer(*trace, *traceFormat, *progress, reg, *flight, *flightEvents)
	if err != nil {
		return fail(err)
	}
	if tracer != nil {
		ctx = obs.WithTracer(ctx, tracer)
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "seqver: trace:", err)
			}
		}()
	}
	ctx, root := obs.Start1(ctx, "seqver", obs.S("engine", *engine))
	defer root.End()

	_, psp := obs.Start(ctx, "parse")
	pmem := obs.SpanMem(psp)
	c1, err := load(flag.Arg(0))
	var c2 *seqver.Circuit
	if err == nil {
		c2, err = load(flag.Arg(1))
	}
	if psp != nil && err == nil {
		psp.Gauge("parse.gates1", int64(c1.NumGates()))
		psp.Gauge("parse.gates2", int64(c2.NumGates()))
	}
	pmem.End()
	psp.End()

	var code int
	var rep *seqver.Report
	if err != nil {
		code = fail(err)
	} else {
		code, rep = check(ctx, c1, c2, checkOptions{
			acyclic: *acyclic, unateAware: *unateAware,
			stats: *stats, statsJSON: *statsJSON,
			budget: *budget, engine: *engine,
			opt: seqver.Options{Rewrite: *rewrite, CEC: seqver.CECOptions{
				Engine:           *engine,
				Budget:           *budget,
				Workers:          *workers,
				SimRounds:        *simRounds,
				SimWordsPerRound: *simWords,
				MaxConflicts:     *maxConflicts,
			}},
		})
	}
	root.End() // close the root now so a flight dump needs no repair for it

	// Flight recorder: leave a post-mortem artifact whenever the run did
	// not reach a clean verdict — Undecided (2), usage/input/internal
	// error (3), or any recovered worker panic.
	panicked := rep != nil && rep.Result.Stats != nil && len(rep.Result.Stats.Panics) > 0
	if ring != nil && (code >= 2 || panicked) {
		dumpFlight(ring, *flightDir)
	}

	if dbg != nil && *debugLinger > 0 {
		fmt.Fprintf(os.Stderr, "seqver: verdict ready (exit %d); debug server lingering %v on http://%s\n",
			code, *debugLinger, dbg.Addr)
		time.Sleep(*debugLinger)
	}
	return code
}

// dumpFlight writes the ring to seqver-flight-<utc timestamp>.jsonl in
// dir, reporting (not failing on) I/O errors — the dump is a best-effort
// diagnostic riding an already-bad exit.
func dumpFlight(ring *obs.RingSink, dir string) {
	path := filepath.Join(dir, "seqver-flight-"+time.Now().UTC().Format("20060102T150405.000000000Z")+".jsonl")
	if err := ring.DumpFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "seqver: flight recorder:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "seqver: flight recorder: %d events (%d dropped) -> %s\n",
		len(ring.Events()), ring.Dropped(), path)
}

type checkOptions struct {
	acyclic, unateAware bool
	stats               bool
	statsJSON           string
	budget              time.Duration
	engine              string
	opt                 seqver.Options
}

// check runs the verification and prints the verdict, returning the
// exit code plus the report (nil on error) so the caller can decide on
// a flight-recorder dump.
func check(ctx context.Context, c1, c2 *seqver.Circuit, co checkOptions) (int, *seqver.Report) {
	start := time.Now()
	var rep *seqver.Report
	var err error
	if co.acyclic {
		rep, err = seqver.VerifyAcyclicCtx(ctx, c1, c2, co.opt)
	} else {
		rep, err = seqver.VerifyCtx(ctx, c1, c2, seqver.PrepareOptions{UnateAware: co.unateAware}, co.opt)
	}
	if err != nil {
		return fail(err), nil
	}
	fmt.Printf("method:   %s%s\n", rep.Method, conservativeTag(rep))
	fmt.Printf("depth:    %d\n", rep.Depth)
	fmt.Printf("unrolled: %d / %d gates\n", rep.UnrolledGates[0], rep.UnrolledGates[1])
	fmt.Printf("verdict:  %v  (%v, %d SAT calls)\n", rep.Result.Verdict, rep.Elapsed.Round(1e6), rep.Result.SATCalls)
	if co.stats && rep.Result.Stats != nil {
		fmt.Println("--- engine stats ---")
		fmt.Print(rep.Result.Stats)
	}
	if co.statsJSON != "" {
		if err := writeStatsJSON(co.statsJSON, rep, co.engine, time.Since(start)); err != nil {
			return fail(err), rep
		}
	}
	switch rep.Result.Verdict {
	case seqver.Inequivalent:
		fmt.Printf("failing output: %s\n", rep.Result.FailingOutput)
		fmt.Println("counterexample (unrolled input window):")
		for k, v := range rep.Result.Counterexample {
			fmt.Printf("  %s = %v\n", k, b2i(v))
		}
		// On the CBF path, replay the window as a concrete sequence.
		if rep.Method == "cbf" && co.acyclic {
			if rp, rerr := seqver.ReplayCounterexample(c1, c2, rep.Result.Counterexample); rerr == nil {
				fmt.Printf("replayed: cycle %d, output %s: %v vs %v\n",
					rp.Cycle, rp.Output, b2i(rp.Got1), b2i(rp.Got2))
				fmt.Println("input sequence (one row per cycle):")
				for t, row := range rp.Sequence {
					fmt.Printf("  t=%d:", t)
					for i, v := range row {
						fmt.Printf(" %s=%d", c1.InputNames()[i], b2i(v))
					}
					fmt.Println()
				}
			}
		}
		return 1, rep
	case seqver.Undecided:
		if un := rep.Result.UndecidedOutputs; len(un) > 0 {
			fmt.Printf("undecided outputs (%d):\n", len(un))
			for _, name := range un {
				fmt.Printf("  %s\n", name)
			}
		}
		if co.budget > 0 {
			fmt.Printf("budget %v exhausted; rerun with a larger -budget to resolve\n",
				co.budget.Round(time.Millisecond))
		}
		return 2, rep
	}
	return 0, rep
}

// buildTracer assembles the sink stack selected by the flags: the trace
// file, the stderr progress renderer, the metrics folder (when a
// registry is live), and the flight-recorder ring. With everything off
// (-flight=false and no other sink) it returns a nil tracer, keeping
// the whole pipeline on its zero-cost path.
func buildTracer(path, format string, progress bool, reg *metrics.Registry,
	flight bool, flightEvents int) (*obs.Tracer, *obs.RingSink, error) {
	var sinks []obs.Sink
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		switch format {
		case "jsonl":
			sinks = append(sinks, obs.NewJSONLSink(f))
		case "chrome":
			sinks = append(sinks, obs.NewChromeSink(f))
		default:
			f.Close()
			return nil, nil, fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", format)
		}
	}
	if progress {
		sinks = append(sinks, obs.NewProgressSink(os.Stderr))
	}
	if reg != nil {
		// Folds span durations into the seqver_phase_seconds histogram
		// (and counts/gauges into the registry) for /metrics.
		sinks = append(sinks, metrics.NewSink(reg))
	}
	var ring *obs.RingSink
	if flight {
		ring = obs.NewRingSink(flightEvents)
		sinks = append(sinks, ring)
	}
	if len(sinks) == 0 {
		return nil, nil, nil
	}
	return obs.New(sinks...), ring, nil
}

// statsEnvelope wraps the engine statistics with enough run context to
// interpret an archived file on its own: which tool and version
// produced it, what it decided, how long the whole run took, and what
// hardware it ran on — gomaxprocs/num_cpu/hostname make files from
// different hosts comparable with benchdiff-style tooling (elapsed_ns
// from a 1-CPU box and a 32-core server are different measurements).
type statsEnvelope struct {
	Tool       string           `json:"tool"`
	Version    string           `json:"version"`
	Verdict    string           `json:"verdict"`
	Method     string           `json:"method"`
	Engine     string           `json:"engine"`
	ElapsedNS  int64            `json:"elapsed_ns"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Hostname   string           `json:"hostname,omitempty"`
	Stats      *seqver.CECStats `json:"stats,omitempty"`
}

func writeStatsJSON(path string, rep *seqver.Report, engine string, elapsed time.Duration) error {
	hostname, _ := os.Hostname() // best-effort; omitted when unavailable
	env := statsEnvelope{
		Tool:       "seqver",
		Version:    seqver.Version,
		Verdict:    fmt.Sprint(rep.Result.Verdict),
		Method:     rep.Method,
		Engine:     engine,
		ElapsedNS:  elapsed.Nanoseconds(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Hostname:   hostname,
		Stats:      rep.Result.Stats,
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func conservativeTag(rep *seqver.Report) string {
	if rep.Conservative {
		return " (conservative: inequivalence may be a false negative)"
	}
	return ""
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "seqver:", err)
	return 3
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// submitRemote runs the check on a seqverd daemon: read both BLIF
// files, post them as one job, poll to the verdict, and print it in the
// same shape as a local run. Network and daemon failures are exit 3,
// like any other input error; verdicts keep the 0/1/2 contract.
func submitRemote(base, goldenPath, revisedPath string, req *serve.JobRequest) int {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return fail(err)
	}
	revised, err := os.ReadFile(revisedPath)
	if err != nil {
		return fail(err)
	}
	req.Golden = serve.SideSpec{BLIF: string(golden)}
	req.Revised = serve.SideSpec{BLIF: string(revised)}

	ctx := context.Background()
	// Text logs on stderr at Warn: silent on the happy path, but a
	// retried or abandoned submission says why before the exit code.
	client := &serve.Client{Base: base, Logger: slog.New(slog.NewTextHandler(os.Stderr,
		&slog.HandlerOptions{Level: slog.LevelWarn}))}
	view, err := client.Submit(ctx, req)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "seqver: submitted %s to %s\n", view.ID, base)
	view, err = client.Wait(ctx, view.ID)
	if err != nil {
		return fail(err)
	}
	switch view.Status {
	case serve.StatusFailed:
		return fail(fmt.Errorf("job %s failed: %s", view.ID, view.Error))
	case serve.StatusRejected:
		return fail(fmt.Errorf("job %s rejected: %s", view.ID, view.Error))
	}
	res := view.Result
	if res == nil {
		return fail(fmt.Errorf("job %s finished without a result", view.ID))
	}
	from := "solved"
	if res.Cached {
		from = "result cache"
	}
	tag := ""
	if res.Conservative {
		tag = " (conservative: inequivalence may be a false negative)"
	}
	fmt.Printf("method:   %s%s\n", res.Method, tag)
	fmt.Printf("depth:    %d\n", res.Depth)
	fmt.Printf("verdict:  %s  (%v, %d SAT calls, %s)\n",
		res.Verdict, time.Duration(res.ElapsedNS).Round(1e6), res.SATCalls, from)
	if res.FailingOutput != "" {
		fmt.Printf("failing output: %s\n", res.FailingOutput)
		fmt.Println("counterexample (unrolled input window):")
		for k, v := range res.Counterexample {
			fmt.Printf("  %s = %v\n", k, b2i(v))
		}
	}
	for _, name := range res.UndecidedOutputs {
		fmt.Printf("undecided output: %s\n", name)
	}
	return res.ExitCode
}

func load(path string) (*seqver.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := seqver.ParseBLIF(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
