package benchfmt

import (
	"fmt"
	"sort"
	"strings"
)

// DiffOptions tunes Compare.
type DiffOptions struct {
	// Threshold is the new/old ratio above which a slowdown counts as a
	// regression (e.g. 1.25 tolerates 25% noise). Values <= 1 select
	// DefaultThreshold. Speedups are never regressions.
	Threshold float64
	// AllowProcsMismatch skips the GOMAXPROCS guard. Off by default:
	// ns/op from hosts with different parallelism budgets are not
	// comparable, and the committed BENCH_cec.json itself proves it (a
	// 1-CPU box makes workers=2 look like a slowdown).
	AllowProcsMismatch bool
	// AllocThreshold is the new/old ratio above which allocation growth
	// counts as a regression. It applies to bytes_per_op and to
	// allocs_per_op alike, so a change that trades a few large
	// allocations for many small ones trips it as surely as one that
	// allocates more bytes. It has its own (tighter) default because
	// allocation is nearly deterministic where wall clock is noisy.
	// Values <= 1 select DefaultAllocThreshold. A field missing on
	// either side (files predating the alloc schema) skips its gate.
	AllocThreshold float64
}

// DefaultThreshold tolerates 25% run-to-run noise — calibrated against
// repeated cecbench runs on an otherwise idle 1-CPU container (see
// EXPERIMENTS.md, "benchdiff noise threshold").
const DefaultThreshold = 1.25

// DefaultAllocThreshold tolerates 10% bytes/op or allocs/op growth.
// Allocation barely varies run to run (the work is deterministic; only
// GC timing is not), so the alloc gates can be much tighter than the
// wall-clock gate.
const DefaultAllocThreshold = 1.10

// Delta is one compared row.
type Delta struct {
	Key     string  `json:"key"` // "workers=2" or "budget=20ms"
	OldNSOp int64   `json:"old_ns_op"`
	NewNSOp int64   `json:"new_ns_op"`
	Ratio   float64 `json:"ratio"` // new/old; >1 is slower
	// Regression is true when Ratio exceeds the threshold.
	Regression bool `json:"regression"`
	// Allocation comparison (worker rows only; each pair is zero when
	// either side predates the alloc schema).
	OldBytesOp  int64   `json:"old_bytes_op,omitempty"`
	NewBytesOp  int64   `json:"new_bytes_op,omitempty"`
	AllocRatio  float64 `json:"alloc_ratio,omitempty"` // new/old bytes per op
	OldAllocsOp int64   `json:"old_allocs_op,omitempty"`
	NewAllocsOp int64   `json:"new_allocs_op,omitempty"`
	AllocsRatio float64 `json:"allocs_ratio,omitempty"` // new/old allocations per op
	// AllocRegression is true when AllocRatio or AllocsRatio exceeds
	// the alloc threshold.
	AllocRegression bool `json:"alloc_regression,omitempty"`
	// Note carries row-level caveats (oversubscription warnings from
	// either file, undecided-output count changes on budget rungs).
	Note string `json:"note,omitempty"`
}

// Diff is the outcome of comparing two reports.
type Diff struct {
	Circuit     string   `json:"circuit"`
	Engine      string   `json:"engine"`
	Threshold   float64  `json:"threshold"`
	Deltas      []Delta  `json:"deltas"`
	Missing     []string `json:"missing,omitempty"` // rows present in only one file
	Regressions int      `json:"regressions"`
	// AllocThreshold / AllocRegressions mirror Threshold / Regressions
	// for the allocation gates (bytes and count per op).
	AllocThreshold   float64 `json:"alloc_threshold,omitempty"`
	AllocRegressions int     `json:"alloc_regressions,omitempty"`
}

// Compare diffs base (the committed reference) against head (the
// fresh measurement). Worker rows compare min ns/op (the
// noise floor of the measurement, same basis as the recorded speedup
// column); budget rungs compare mean ns/op, since a budgeted run's
// minimum is clamped by design. It refuses — with an error naming the
// fields — to compare files whose circuit, engine, or GOMAXPROCS
// differ, unless opts.AllowProcsMismatch waives the last.
func Compare(base, head *Report, opt DiffOptions) (*Diff, error) {
	if base.Circuit != head.Circuit {
		return nil, fmt.Errorf("benchfmt: circuit mismatch: %q vs %q — not the same workload", base.Circuit, head.Circuit)
	}
	if base.Engine != head.Engine {
		return nil, fmt.Errorf("benchfmt: engine mismatch: %q vs %q — not the same decision procedure", base.Engine, head.Engine)
	}
	if !opt.AllowProcsMismatch && base.GOMAXPROCS != head.GOMAXPROCS {
		return nil, fmt.Errorf("benchfmt: GOMAXPROCS mismatch: %d vs %d — ns/op from different parallelism budgets are not comparable (rerun on a matching host, or pass -allow-procs-mismatch to override)",
			base.GOMAXPROCS, head.GOMAXPROCS)
	}
	thr := opt.Threshold
	if thr <= 1 {
		thr = DefaultThreshold
	}
	athr := opt.AllocThreshold
	if athr <= 1 {
		athr = DefaultAllocThreshold
	}
	d := &Diff{Circuit: base.Circuit, Engine: base.Engine, Threshold: thr, AllocThreshold: athr}

	oldW := map[int]WorkerResult{}
	for _, r := range base.Results {
		oldW[r.Workers] = r
	}
	seenW := map[int]bool{}
	for _, nr := range head.Results {
		or, ok := oldW[nr.Workers]
		key := fmt.Sprintf("workers=%d", nr.Workers)
		if !ok {
			d.Missing = append(d.Missing, key+" (only in new)")
			continue
		}
		seenW[nr.Workers] = true
		if !opt.AllowProcsMismatch && or.GOMAXPROCS != 0 && nr.GOMAXPROCS != 0 && or.GOMAXPROCS != nr.GOMAXPROCS {
			return nil, fmt.Errorf("benchfmt: row %s: GOMAXPROCS mismatch: %d vs %d", key, or.GOMAXPROCS, nr.GOMAXPROCS)
		}
		delta := makeDelta(key, or.MinNSOp, nr.MinNSOp, thr)
		delta.Note = joinNotes(or.Warning, nr.Warning)
		if or.BytesPerOp > 0 && nr.BytesPerOp > 0 {
			delta.OldBytesOp, delta.NewBytesOp = or.BytesPerOp, nr.BytesPerOp
			delta.AllocRatio = float64(nr.BytesPerOp) / float64(or.BytesPerOp)
		}
		if or.AllocsPerOp > 0 && nr.AllocsPerOp > 0 {
			delta.OldAllocsOp, delta.NewAllocsOp = or.AllocsPerOp, nr.AllocsPerOp
			delta.AllocsRatio = float64(nr.AllocsPerOp) / float64(or.AllocsPerOp)
		}
		delta.AllocRegression = delta.AllocRatio > athr || delta.AllocsRatio > athr
		d.add(delta)
	}
	for _, or := range base.Results {
		if !seenW[or.Workers] {
			d.Missing = append(d.Missing, fmt.Sprintf("workers=%d (only in old)", or.Workers))
		}
	}

	oldB := map[string]BudgetResult{}
	for _, r := range base.BudgetSweep {
		oldB[r.Budget] = r
	}
	seenB := map[string]bool{}
	for _, nr := range head.BudgetSweep {
		or, ok := oldB[nr.Budget]
		key := "budget=" + nr.Budget
		if !ok {
			d.Missing = append(d.Missing, key+" (only in new)")
			continue
		}
		seenB[nr.Budget] = true
		delta := makeDelta(key, or.MeanNSOp, nr.MeanNSOp, thr)
		if or.Undecided != nr.Undecided {
			delta.Note = joinNotes(delta.Note,
				fmt.Sprintf("undecided outputs %d -> %d", or.Undecided, nr.Undecided))
		}
		d.add(delta)
	}
	for _, or := range base.BudgetSweep {
		if !seenB[or.Budget] {
			d.Missing = append(d.Missing, "budget="+or.Budget+" (only in old)")
		}
	}
	sort.Strings(d.Missing)
	return d, nil
}

func makeDelta(key string, oldNS, newNS int64, thr float64) Delta {
	delta := Delta{Key: key, OldNSOp: oldNS, NewNSOp: newNS}
	if oldNS > 0 {
		delta.Ratio = float64(newNS) / float64(oldNS)
		delta.Regression = delta.Ratio > thr
	}
	return delta
}

func (d *Diff) add(delta Delta) {
	if delta.Regression {
		d.Regressions++
	}
	if delta.AllocRegression {
		d.AllocRegressions++
	}
	d.Deltas = append(d.Deltas, delta)
}

// joinNotes concatenates non-empty notes, deduplicating exact repeats
// (both files usually carry the same oversubscription warning).
func joinNotes(notes ...string) string {
	var parts []string
	seen := map[string]bool{}
	for _, n := range notes {
		if n != "" && !seen[n] {
			seen[n] = true
			parts = append(parts, n)
		}
	}
	return strings.Join(parts, "; ")
}
