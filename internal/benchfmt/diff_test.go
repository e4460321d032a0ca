package benchfmt

import (
	"strings"
	"testing"
)

func sampleReport() *Report {
	return &Report{
		Circuit:    "s3384",
		Engine:     "hybrid",
		Outputs:    26,
		GOMAXPROCS: 1,
		NumCPU:     1,
		Results: []WorkerResult{
			{Workers: 1, Iters: 5, MeanNSOp: 1_100_000, MinNSOp: 1_000_000, GOMAXPROCS: 1, NumCPU: 1},
			{Workers: 2, Iters: 5, MeanNSOp: 1_300_000, MinNSOp: 1_200_000, GOMAXPROCS: 1, NumCPU: 1,
				Warning: "workers=2 exceeds GOMAXPROCS=1: row measures scheduling overhead, not parallel speedup"},
		},
		BudgetSweep: []BudgetResult{
			{Budget: "5ms", Iters: 3, MeanNSOp: 5_000_000, Undecided: 10},
			{Budget: "0", Iters: 3, MeanNSOp: 40_000_000, Undecided: 0},
		},
	}
}

func TestCompareIdentical(t *testing.T) {
	d, err := Compare(sampleReport(), sampleReport(), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions != 0 {
		t.Fatalf("identical reports: %d regressions, want 0", d.Regressions)
	}
	if len(d.Deltas) != 4 {
		t.Fatalf("deltas = %d, want 4 (2 worker rows + 2 budget rungs)", len(d.Deltas))
	}
	if d.Threshold != DefaultThreshold {
		t.Fatalf("threshold = %v, want default %v", d.Threshold, DefaultThreshold)
	}
	for _, delta := range d.Deltas {
		if delta.Ratio != 1 {
			t.Errorf("%s: ratio %v, want 1", delta.Key, delta.Ratio)
		}
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	head := sampleReport()
	head.Results[0].MinNSOp *= 2 // inject a 2x slowdown on workers=1
	d, err := Compare(sampleReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1", d.Regressions)
	}
	var hit *Delta
	for i := range d.Deltas {
		if d.Deltas[i].Key == "workers=1" {
			hit = &d.Deltas[i]
		}
	}
	if hit == nil || !hit.Regression || hit.Ratio != 2 {
		t.Fatalf("workers=1 delta = %+v, want regression at 2x", hit)
	}
}

func TestCompareWorkerRowsUseMin(t *testing.T) {
	// A mean regression with a stable min is noise by this package's
	// definition: worker rows gate on min ns/op.
	head := sampleReport()
	head.Results[0].MeanNSOp *= 3
	d, err := Compare(sampleReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions != 0 {
		t.Fatalf("mean-only slowdown flagged: %d regressions, want 0", d.Regressions)
	}
}

func TestCompareBudgetRowsUseMean(t *testing.T) {
	head := sampleReport()
	head.BudgetSweep[1].MeanNSOp *= 2
	d, err := Compare(sampleReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Regressions != 1 {
		t.Fatalf("budget mean regression not flagged: %d, want 1", d.Regressions)
	}
}

func TestCompareThreshold(t *testing.T) {
	head := sampleReport()
	head.Results[0].MinNSOp = 1_400_000 // 1.4x
	if d, _ := Compare(sampleReport(), head, DiffOptions{Threshold: 1.5}); d.Regressions != 0 {
		t.Fatalf("1.4x under a 1.5x threshold flagged")
	}
	if d, _ := Compare(sampleReport(), head, DiffOptions{Threshold: 1.3}); d.Regressions != 1 {
		t.Fatalf("1.4x over a 1.3x threshold not flagged")
	}
	// Threshold <= 1 falls back to the default rather than flagging
	// every speedup-free row.
	if d, _ := Compare(sampleReport(), sampleReport(), DiffOptions{Threshold: 0.5}); d.Threshold != DefaultThreshold {
		t.Fatalf("threshold %v, want default fallback", d.Threshold)
	}
}

func TestCompareRefusesMismatches(t *testing.T) {
	base := sampleReport()

	head := sampleReport()
	head.Circuit = "s1269"
	if _, err := Compare(base, head, DiffOptions{}); err == nil || !strings.Contains(err.Error(), "circuit mismatch") {
		t.Fatalf("circuit mismatch not refused: %v", err)
	}

	head = sampleReport()
	head.Engine = "bdd"
	if _, err := Compare(base, head, DiffOptions{}); err == nil || !strings.Contains(err.Error(), "engine mismatch") {
		t.Fatalf("engine mismatch not refused: %v", err)
	}

	head = sampleReport()
	head.GOMAXPROCS = 8
	_, err := Compare(base, head, DiffOptions{})
	if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS mismatch") {
		t.Fatalf("GOMAXPROCS mismatch not refused: %v", err)
	}
	if !strings.Contains(err.Error(), "allow-procs-mismatch") {
		t.Fatalf("refusal must name the override flag: %v", err)
	}
	if _, err := Compare(base, head, DiffOptions{AllowProcsMismatch: true}); err != nil {
		t.Fatalf("AllowProcsMismatch did not waive the guard: %v", err)
	}

	// Per-row guard: file headers match but a row was recorded elsewhere.
	head = sampleReport()
	head.Results[1].GOMAXPROCS = 16
	if _, err := Compare(base, head, DiffOptions{}); err == nil || !strings.Contains(err.Error(), "row workers=2") {
		t.Fatalf("per-row GOMAXPROCS mismatch not refused: %v", err)
	}
}

func TestCompareMissingRows(t *testing.T) {
	head := sampleReport()
	head.Results = head.Results[:1]                           // workers=2 only in old
	head.BudgetSweep = append(head.BudgetSweep, BudgetResult{ // 20ms only in new
		Budget: "20ms", MeanNSOp: 1,
	})
	d, err := Compare(sampleReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"workers=2 (only in old)":   true,
		"budget=20ms (only in new)": true,
	}
	if len(d.Missing) != len(want) {
		t.Fatalf("missing = %v, want %v", d.Missing, want)
	}
	for _, m := range d.Missing {
		if !want[m] {
			t.Errorf("unexpected missing entry %q", m)
		}
	}
}

func TestCompareNotes(t *testing.T) {
	head := sampleReport()
	head.BudgetSweep[0].Undecided = 14
	d, err := Compare(sampleReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var note string
	for _, delta := range d.Deltas {
		if delta.Key == "budget=5ms" {
			note = delta.Note
		}
	}
	if !strings.Contains(note, "undecided outputs 10 -> 14") {
		t.Fatalf("undecided drift not noted: %q", note)
	}
	// Oversubscription warnings from either side surface on the row.
	for _, delta := range d.Deltas {
		if delta.Key == "workers=2" && !strings.Contains(delta.Note, "exceeds GOMAXPROCS") {
			t.Fatalf("worker warning not carried into note: %q", delta.Note)
		}
	}
}

// allocReport is sampleReport with allocation numbers on the worker
// rows, as cecbench has recorded since the alloc schema landed.
func allocReport() *Report {
	r := sampleReport()
	for i := range r.Results {
		r.Results[i].AllocsPerOp = 10_000
		r.Results[i].BytesPerOp = 1 << 20
		r.Results[i].GCPauseNSOp = 50_000
	}
	return r
}

func TestCompareAllocIdentical(t *testing.T) {
	d, err := Compare(allocReport(), allocReport(), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.AllocRegressions != 0 {
		t.Fatalf("identical alloc profiles: %d alloc regressions, want 0", d.AllocRegressions)
	}
	if d.AllocThreshold != DefaultAllocThreshold {
		t.Fatalf("alloc threshold = %v, want default %v", d.AllocThreshold, DefaultAllocThreshold)
	}
	for _, delta := range d.Deltas {
		if strings.HasPrefix(delta.Key, "workers=") && (delta.AllocRatio != 1 || delta.AllocsRatio != 1) {
			t.Errorf("%s: alloc ratios %v, %v, want 1", delta.Key, delta.AllocRatio, delta.AllocsRatio)
		}
	}
}

func TestCompareAllocRegression(t *testing.T) {
	head := allocReport()
	head.Results[0].BytesPerOp = head.Results[0].BytesPerOp * 3 / 2 // 1.5x growth
	d, err := Compare(allocReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.AllocRegressions != 1 {
		t.Fatalf("1.5x bytes/op growth: %d alloc regressions, want 1", d.AllocRegressions)
	}
	if d.Regressions != 0 {
		t.Fatalf("alloc-only growth flagged as a time regression: %d", d.Regressions)
	}
	var hit *Delta
	for i := range d.Deltas {
		if d.Deltas[i].Key == "workers=1" {
			hit = &d.Deltas[i]
		}
	}
	if hit == nil || !hit.AllocRegression || hit.AllocRatio != 1.5 {
		t.Fatalf("workers=1 delta = %+v, want alloc regression at 1.5x", hit)
	}
	if hit.Regression {
		t.Fatalf("workers=1 delta marked as time regression too: %+v", hit)
	}
}

func TestCompareAllocCountRegression(t *testing.T) {
	// 1.5x more allocations at equal bytes: many small objects replace
	// a few large ones. The bytes gate alone would pass it.
	head := allocReport()
	head.Results[0].AllocsPerOp = head.Results[0].AllocsPerOp * 3 / 2
	d, err := Compare(allocReport(), head, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.AllocRegressions != 1 || d.Regressions != 0 {
		t.Fatalf("1.5x allocs/op growth: %d alloc and %d time regressions, want 1 and 0",
			d.AllocRegressions, d.Regressions)
	}
	for _, delta := range d.Deltas {
		if delta.Key != "workers=1" {
			continue
		}
		if !delta.AllocRegression || delta.AllocsRatio != 1.5 || delta.AllocRatio != 1 {
			t.Fatalf("workers=1 delta = %+v, want count ratio 1.5 and bytes ratio 1, flagged", delta)
		}
		if delta.OldAllocsOp != 10_000 || delta.NewAllocsOp != 15_000 {
			t.Fatalf("workers=1 allocs %d -> %d, want 10000 -> 15000", delta.OldAllocsOp, delta.NewAllocsOp)
		}
	}
	// A count-only baseline (no bytes) still gates on the count.
	base := allocReport()
	base.Results[0].BytesPerOp = 0
	if d, _ := Compare(base, head, DiffOptions{}); d.AllocRegressions != 1 {
		t.Fatalf("count gate skipped when bytes are missing: %d alloc regressions", d.AllocRegressions)
	}
}

func TestCompareAllocThresholdOption(t *testing.T) {
	head := allocReport()
	head.Results[0].BytesPerOp = allocReport().Results[0].BytesPerOp * 115 / 100 // 1.15x
	if d, _ := Compare(allocReport(), head, DiffOptions{AllocThreshold: 1.20}); d.AllocRegressions != 0 {
		t.Fatalf("1.15x under a 1.20x alloc threshold flagged")
	}
	if d, _ := Compare(allocReport(), head, DiffOptions{AllocThreshold: 1.05}); d.AllocRegressions != 1 {
		t.Fatalf("1.15x over a 1.05x alloc threshold not flagged")
	}
	if d, _ := Compare(allocReport(), allocReport(), DiffOptions{AllocThreshold: 0.5}); d.AllocThreshold != DefaultAllocThreshold {
		t.Fatalf("alloc threshold %v, want default fallback", d.AllocThreshold)
	}
}

func TestCompareAllocSkipsLegacyRows(t *testing.T) {
	// A baseline recorded before the alloc schema has BytesPerOp == 0 on
	// every row; the gate must skip, not divide by zero or flag 0 -> N
	// as infinite growth.
	d, err := Compare(sampleReport(), allocReport(), DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.AllocRegressions != 0 {
		t.Fatalf("legacy baseline vs alloc head: %d alloc regressions, want 0 (gate skipped)", d.AllocRegressions)
	}
	for _, delta := range d.Deltas {
		if delta.AllocRatio != 0 || delta.AllocsRatio != 0 {
			t.Errorf("%s: alloc ratios %v, %v on a legacy comparison, want 0", delta.Key, delta.AllocRatio, delta.AllocsRatio)
		}
	}
	// And the mirror: alloc baseline vs legacy head.
	if d, _ := Compare(allocReport(), sampleReport(), DiffOptions{}); d.AllocRegressions != 0 {
		t.Fatalf("alloc baseline vs legacy head: %d alloc regressions, want 0", d.AllocRegressions)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	_, err := Read(strings.NewReader(`{"circuit":"x","engine":"hybrid","bogus":1}`))
	if err == nil {
		t.Fatal("unknown field accepted; schema drift would compare zeros")
	}
}
