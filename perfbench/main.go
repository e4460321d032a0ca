// Command perfbench is the repository's benchmark of the default
// verification path. It drives the public API in-process, the way the
// seqver CLI and the seqverd daemon do, over four seeded workloads, and
// checks every verdict against a known answer. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload retimed_s3384 --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqver"
)

// Run-shape constants. setupRepeats builds the pair set several times
// so that setup_s is a median, not one draw of a drifting host;
// minRounds keeps pairs_per_s and peak_heap_mb medians over at least
// four rounds even when --seconds is short. maxTimed ends a run whose
// verdicts stay undecided, so the p90 gate can never be met.
const (
	setupRepeats = 3
	minRounds    = 4
	warmupPairs  = 4
	maxTimed     = 2 * time.Minute
)

// workload is one set of seeded inputs and the path that decides them.
type workload struct {
	name  string
	pairs int
	build func(i int) (pair, error)
	// acyclic selects VerifyAcyclicCtx (pairs already satisfy the
	// feedback constraint); otherwise VerifyCtx prepares them.
	acyclic bool
	// daemon routes the pairs through an in-process serve.Server
	// instead of calling the verifier directly.
	daemon bool
}

// Each round of a run visits every pair once; the pair counts keep a
// round to a few seconds, so a run holds several rounds.
var workloads = []workload{
	{name: "retimed_s3384", pairs: 64, build: retimedPair, acyclic: true},
	{name: "industrial_ex5", pairs: 48, build: industrialPair},
	{name: "buggy_s3384", pairs: 64, build: buggyPair, acyclic: true},
	{name: "daemon_repeat", pairs: 64, build: retimedPair, daemon: true},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errWrongVerdict marks an oracle violation: a verdict that contradicts
// the pair's known answer, or a counterexample that does not replay.
// It aborts the run.
var errWrongVerdict = errors.New("wrong verdict")

// env records what the measured path actually was, so a result can be
// read without knowing the defaults of the commit that produced it.
type env struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Engines    []string `json:"engine"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	GoVersion  string   `json:"go_version"`
	// Counters marks, in the traced run, each work counter "exact" or
	// "unusable" for count-based claims (see countDeterminism).
	Counters map[string]string `json:"count_determinism,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 16, "timed run length in seconds")
	trace := fs.Int("trace", 0, "1: traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n",
			*name, *seconds, *trace)
		return 2
	}
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var e *env
	if *trace == 1 {
		res, e, err = layerRun(ctx, w, *seed, budget)
	} else {
		res, e, err = endToEndRun(ctx, w, *seed, budget)
	}
	if e != nil {
		e.Workload, e.Seed = w.name, *seed
		e.GOMAXPROCS, e.NumCPU, e.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()
		if perr := printJSON(e); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		if res != nil && errors.Is(err, errWrongVerdict) {
			res.Correct = false
			_ = printJSON(res) // the run fails either way
		}
		return 1
	}
	if err := printJSON(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// printJSON prints v as one line. It fails only on a metric that is not
// a number, such as the median of no samples.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("print result: %w", err)
	}
	fmt.Println(string(b))
	return nil
}

// buildPairs makes the workload's pairs, on every CPU.
// Its wall time, before timing starts, is setup_s.
func buildPairs(w *workload) ([]pair, error) {
	ps := make([]pair, w.pairs)
	errs := make([]error, w.pairs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ps); i = int(next.Add(1)) - 1 {
				ps[i], errs[i] = w.build(i)
			}
		}()
	}
	wg.Wait()
	return ps, errors.Join(errs...)
}

// parsePair is the first step of every timed verification: the program
// receives BLIF text, as the CLI and the daemon do.
func parsePair(p pair) (*seqver.Circuit, *seqver.Circuit, error) {
	c1, err := seqver.ParseBLIF(strings.NewReader(p.golden))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: parse golden: %w", p.name, err)
	}
	c2, err := seqver.ParseBLIF(strings.NewReader(p.revised))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: parse revised: %w", p.name, err)
	}
	return c1, c2, nil
}

// verifyPair runs the user's path on one pair with zero-valued options
// (the default engine, SAT mode and worker count) and checks the verdict
// against the pair's known answer, replaying every counterexample.
// undecided reports a verdict the default budget could not reach, which
// counts as a failed operation rather than a wrong one.
func verifyPair(ctx context.Context, w *workload, p pair) (engine string, undecided bool, err error) {
	c1, c2, err := parsePair(p)
	if err != nil {
		return "", false, err
	}
	var rep *seqver.Report
	if w.acyclic {
		rep, err = seqver.VerifyAcyclicCtx(ctx, c1, c2, seqver.Options{})
	} else {
		rep, err = seqver.VerifyCtx(ctx, c1, c2, seqver.PrepareOptions{}, seqver.Options{})
	}
	if err != nil {
		return "", false, fmt.Errorf("%s: verify: %w", p.name, err)
	}
	res := rep.Result
	switch {
	case res.Verdict == seqver.Undecided:
		return res.Stats.Engine, true, nil
	case (res.Verdict == seqver.Equivalent) != p.wantEquivalent:
		return "", false, fmt.Errorf("%s: %w: got %v", p.name, errWrongVerdict, res.Verdict)
	case res.Verdict == seqver.Inequivalent:
		if _, err := seqver.ReplayCounterexample(c1, c2, res.Counterexample); err != nil {
			return "", false, fmt.Errorf("%s: %w: counterexample does not replay: %v",
				p.name, errWrongVerdict, err)
		}
	}
	return res.Stats.Engine, false, nil
}

// seededOrder is the order a run visits its pairs in, drawn from the
// seed so that no pair is always first after the warm-up.
func seededOrder(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
