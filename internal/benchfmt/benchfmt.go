// Package benchfmt is the schema of BENCH_cec.json — the bench harness
// (cmd/cecbench) writes it, the regression gate (cmd/benchdiff) compares
// two of them. Keeping the types in one place means the two binaries
// cannot drift apart, and the comparison logic is unit-testable without
// running a benchmark.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WorkerResult is one row of the worker-count sweep.
type WorkerResult struct {
	Workers  int     `json:"workers"`
	Iters    int     `json:"iters"`
	MeanNSOp int64   `json:"mean_ns_op"`
	MinNSOp  int64   `json:"min_ns_op"`
	Speedup  float64 `json:"speedup_vs_1_worker"` // from min ns/op
	Verdict  string  `json:"verdict"`
	// GOMAXPROCS / NumCPU are recorded per row (not just in the file
	// header) so a row is self-describing when rows from different runs
	// are spliced together, and so oversubscription is visible next to
	// the number it explains.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	NumCPU     int `json:"num_cpu,omitempty"`
	// Warning flags rows whose numbers measure something other than
	// parallel speedup — e.g. workers > GOMAXPROCS, where added workers
	// only add scheduling overhead.
	Warning string `json:"warning,omitempty"`
	// PhaseNS breaks the last iteration's wall clock down by engine
	// phase (span name -> ns during which any span of that name was
	// open), from an obs.PhaseFold. PhaseBusyNS sums the same spans'
	// durations, so concurrent miter proofs count once each there;
	// busy/wall is the phase's mean parallelism.
	PhaseNS     map[string]int64 `json:"phase_ns,omitempty"`
	PhaseBusyNS map[string]int64 `json:"phase_busy_ns,omitempty"`
	// Counts sums the same iteration's count events by name (the trace's
	// and /metrics' work totals: sat.calls, fraig.merges, aig.inputs, …).
	Counts map[string]int64 `json:"counts,omitempty"`
	// Allocation profile of the measured iterations — per-op averages
	// from runtime.ReadMemStats deltas around each timed check. Zero
	// in files predating the alloc schema; Compare skips the alloc gate
	// for such rows. These are the numbers the ROADMAP's
	// struct-of-arrays refactor must move.
	AllocsPerOp int64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64 `json:"bytes_per_op,omitempty"`
	// GCPauseNSOp is the stop-the-world GC pause accrued per op.
	GCPauseNSOp int64 `json:"gc_pause_ns_op,omitempty"`
	// MaxNSOp and SpreadRatio (max/min ns per op across all iterations
	// of all -count repeats) record the row's measured run-to-run
	// spread — the variance the benchdiff noise threshold is calibrated
	// from (EXPERIMENTS.md).
	MaxNSOp     int64   `json:"max_ns_op,omitempty"`
	SpreadRatio float64 `json:"spread_ratio,omitempty"`
}

// BudgetResult is one rung of the wall-clock budget sweep.
type BudgetResult struct {
	Budget    string `json:"budget"` // "0" means unbudgeted
	Iters     int    `json:"iters"`
	MeanNSOp  int64  `json:"mean_ns_op"`
	MaxNSOp   int64  `json:"max_ns_op"` // must stay near the budget: the degradation guarantee
	Verdict   string `json:"verdict"`   // from the last iteration
	Undecided int    `json:"undecided_outputs"`
	SATCalls  int    `json:"sat_calls"`
}

// Report is one BENCH_cec.json file.
type Report struct {
	Circuit    string `json:"circuit"`
	Engine     string `json:"engine"`
	Outputs    int    `json:"outputs"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Count is the -count repeat factor the rows were measured with
	// (0/absent means 1: a single sweep).
	Count       int            `json:"count,omitempty"`
	Date        string         `json:"date"`
	Results     []WorkerResult `json:"results"`
	BudgetSweep []BudgetResult `json:"budget_sweep,omitempty"`
}

// Read decodes a report, rejecting unknown fields so a schema change
// that forgets this package fails loudly in CI instead of comparing
// zeros.
func Read(r io.Reader) (*Report, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Load reads a report from a file.
func Load(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
