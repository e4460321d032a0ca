package cec

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats is the engine observability layer: one record per Check call,
// covering all three stages (random simulation, fraig sweeping, SAT
// miter proofs) plus worker-pool utilization. It marshals to JSON for
// the bench harness (cmd/cecbench) and prints a human-readable summary
// for `cmd/seqver -stats`.
type Stats struct {
	Engine           string `json:"engine"`
	Workers          int    `json:"workers"`
	Outputs          int    `json:"outputs"`
	SimRounds        int    `json:"sim_rounds"`
	SimWordsPerRound int    `json:"sim_words_per_round"`
	SimPatterns      int64  `json:"sim_patterns"` // input vectors simulated in stage 1
	SimCexHits       int    `json:"sim_cex_hits"` // stage-1 rounds that exposed a difference

	FraigNodesBefore int   `json:"fraig_nodes_before"`
	FraigNodesAfter  int   `json:"fraig_nodes_after"`
	FraigMerges      int   `json:"fraig_merges"`
	FraigCutMerges   int   `json:"fraig_cut_merges"` // merges settled on a common cut, without SAT
	FraigProveCalls  int   `json:"fraig_prove_calls"`
	FraigRefuted     int   `json:"fraig_refuted"` // proofs answered with a counterexample
	FraigConflicts   int64 `json:"fraig_conflicts"`
	FraigDecisions   int64 `json:"fraig_decisions"`

	StructuralEqual int   `json:"structural_equal"` // miters discharged without SAT
	SATCalls        int   `json:"sat_calls"`
	Conflicts       int64 `json:"conflicts"`
	Decisions       int64 `json:"decisions"`

	// ClausesReused totals, over all probes, the learned clauses already
	// alive in the worker's database when the probe started — the
	// cross-miter reuse a warm per-worker solver exists for.
	ClausesReused int64 `json:"clauses_reused"`
	// VarsEncoded counts solver variables created by cone encoding; with
	// encode-once reuse this stays near the shared-cone size instead of
	// growing linearly with the output count.
	VarsEncoded int64 `json:"vars_encoded"`
	// DBReductions / ClausesDeleted account the solvers' learned-clause
	// garbage collection across the run.
	DBReductions   int64 `json:"db_reductions"`
	ClausesDeleted int64 `json:"clauses_deleted"`

	// BudgetNS is the configured wall-clock budget (0: unbudgeted).
	BudgetNS int64 `json:"budget_ns,omitempty"`
	// Panics records proofs that crashed and were degraded to an
	// undecided output instead of taking down the batch.
	Panics []PanicRecord `json:"panics,omitempty"`

	PerOutput    []OutputStats `json:"per_output,omitempty"`
	WorkerBusyNS []int64       `json:"worker_busy_ns,omitempty"`
	Utilization  float64       `json:"utilization"` // mean busy fraction of the miter-stage wall time
	ElapsedNS    int64         `json:"elapsed_ns"`
}

// PanicRecord is one crashed miter proof: the worker recovered it, the
// output degraded to undecided, and the stack is preserved here.
type PanicRecord struct {
	Output string `json:"output"`
	Value  string `json:"value"` // the recovered panic value
	Stack  string `json:"stack"`
}

// OutputStats is the per-output miter accounting.
type OutputStats struct {
	Name string `json:"name"`
	// Status: structural | equal | cex | undecided (conflict budget) |
	// timeout (wall-clock budget / cancellation) | panic (proof crashed,
	// recovered) | skipped (another output's cex ended the run first).
	Status    string `json:"status"`
	SATCalls  int    `json:"sat_calls"`
	Conflicts int64  `json:"conflicts"` // per-probe delta, not the solver's lifetime counter
	Decisions int64  `json:"decisions"` // per-probe delta, not the solver's lifetime counter
	// LearnedReused is the learned-clause count carried over from earlier
	// miters and alive when this output's probe started.
	LearnedReused int   `json:"learned_reused,omitempty"`
	TimeNS        int64 `json:"time_ns"`
	Worker        int   `json:"worker"` // pool worker that proved this miter (-1: none)
}

// String renders the summary block printed by `cmd/seqver -stats`.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine:      %s (%d workers)\n", s.Engine, s.Workers)
	fmt.Fprintf(&b, "outputs:     %d (%d structural)\n", s.Outputs, s.StructuralEqual)
	fmt.Fprintf(&b, "simulation:  %d rounds x %d words (%d patterns), %d cex hits\n",
		s.SimRounds, s.SimWordsPerRound, s.SimPatterns, s.SimCexHits)
	if s.FraigNodesBefore > 0 {
		fmt.Fprintf(&b, "fraig:       %d -> %d AND nodes, %d merges (%d on a cut; %d proofs, %d refuted; %d conflicts, %d decisions)\n",
			s.FraigNodesBefore, s.FraigNodesAfter, s.FraigMerges, s.FraigCutMerges, s.FraigProveCalls,
			s.FraigRefuted, s.FraigConflicts, s.FraigDecisions)
	}
	fmt.Fprintf(&b, "sat:         %d calls, %d conflicts, %d decisions\n",
		s.SATCalls, s.Conflicts, s.Decisions)
	if s.Engine != "bdd" {
		fmt.Fprintf(&b, "sat reuse:   %d clauses reused, %d vars encoded, %d reductions\n",
			s.ClausesReused, s.VarsEncoded, s.DBReductions)
	}
	if s.BudgetNS > 0 {
		fmt.Fprintf(&b, "budget:      %v wall clock\n", time.Duration(s.BudgetNS))
	}
	if len(s.Panics) > 0 {
		fmt.Fprintf(&b, "panics:      %d recovered proofs (degraded to undecided)\n", len(s.Panics))
	}
	fmt.Fprintf(&b, "utilization: %.0f%% over %v\n",
		s.Utilization*100, time.Duration(s.ElapsedNS).Round(time.Microsecond))
	if len(s.PerOutput) > 0 {
		hard := append([]OutputStats(nil), s.PerOutput...)
		sort.Slice(hard, func(i, j int) bool { return hard[i].Conflicts > hard[j].Conflicts })
		n := len(hard)
		if n > 5 {
			n = 5
		}
		fmt.Fprintf(&b, "hardest miters:\n")
		for _, o := range hard[:n] {
			fmt.Fprintf(&b, "  %-20s %-10s %6d conflicts %8v\n",
				o.Name, o.Status, o.Conflicts, time.Duration(o.TimeNS).Round(time.Microsecond))
		}
	}
	return b.String()
}
