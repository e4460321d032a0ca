package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqver/internal/benchfmt"
)

func writeReport(t *testing.T, dir, name string, rep *benchfmt.Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testReport() *benchfmt.Report {
	return &benchfmt.Report{
		Circuit: "s3384", Engine: "hybrid", GOMAXPROCS: 1, NumCPU: 1,
		Results: []benchfmt.WorkerResult{
			{Workers: 1, Iters: 5, MeanNSOp: 1_100_000, MinNSOp: 1_000_000, GOMAXPROCS: 1, NumCPU: 1},
		},
		BudgetSweep: []benchfmt.BudgetResult{
			{Budget: "5ms", Iters: 3, MeanNSOp: 5_000_000},
		},
	}
}

func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := writeReport(t, dir, "base.json", testReport())

	t.Run("identical", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{base, base}, &out, &errb); code != 0 {
			t.Fatalf("identical files: exit %d, want 0\nstderr: %s", code, errb.String())
		}
		if !strings.Contains(out.String(), "workers=1") {
			t.Errorf("table missing worker row:\n%s", out.String())
		}
	})

	t.Run("regression", func(t *testing.T) {
		slow := testReport()
		slow.Results[0].MinNSOp *= 2
		head := writeReport(t, dir, "slow.json", slow)
		var out, errb bytes.Buffer
		if code := run([]string{base, head}, &out, &errb); code != 1 {
			t.Fatalf("2x regression: exit %d, want 1", code)
		}
		if !strings.Contains(errb.String(), "regression(s)") {
			t.Errorf("stderr missing regression summary: %s", errb.String())
		}
		if !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("table missing REGRESSION verdict:\n%s", out.String())
		}
	})

	t.Run("procs-mismatch", func(t *testing.T) {
		other := testReport()
		other.GOMAXPROCS = 8
		other.Results[0].GOMAXPROCS = 8
		head := writeReport(t, dir, "procs.json", other)
		var out, errb bytes.Buffer
		if code := run([]string{base, head}, &out, &errb); code != 2 {
			t.Fatalf("GOMAXPROCS mismatch: exit %d, want 2", code)
		}
		if !strings.Contains(errb.String(), "GOMAXPROCS mismatch") {
			t.Errorf("stderr does not explain the refusal: %s", errb.String())
		}
		if code := run([]string{"-allow-procs-mismatch", base, head}, &out, &errb); code != 0 {
			t.Fatalf("-allow-procs-mismatch: exit %d, want 0", code)
		}
	})

	t.Run("retired-solver-mode-field", func(t *testing.T) {
		// Reports recorded while cecbench still had a SAT-mode switch
		// carry a sat_mode field the schema no longer has: the strict
		// reader refuses them by name.
		a := writeReport(t, dir, "base.json", testReport())
		b := filepath.Join(dir, "fresh.json")
		if err := os.WriteFile(b, []byte(`{"circuit":"s3384","engine":"sat","sat_mode":"fresh"}`), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if code := run([]string{a, b}, &out, &errb); code != 2 {
			t.Fatalf("retired sat_mode field: exit %d, want 2", code)
		}
		if !strings.Contains(errb.String(), "sat_mode") {
			t.Errorf("stderr does not name the field: %s", errb.String())
		}
	})

	t.Run("alloc-regression", func(t *testing.T) {
		// The acceptance case: an injected allocation regression fails
		// the diff even though wall clock is unchanged.
		withAlloc := testReport()
		withAlloc.Results[0].AllocsPerOp = 10_000
		withAlloc.Results[0].BytesPerOp = 1 << 20
		allocBase := writeReport(t, dir, "alloc-base.json", withAlloc)

		grown := testReport()
		grown.Results[0].AllocsPerOp = 10_000
		grown.Results[0].BytesPerOp = (1 << 20) * 3 / 2 // 1.5x bytes/op
		head := writeReport(t, dir, "alloc-grown.json", grown)

		var out, errb bytes.Buffer
		if code := run([]string{allocBase, head}, &out, &errb); code != 1 {
			t.Fatalf("1.5x alloc growth: exit %d, want 1\nstderr: %s", code, errb.String())
		}
		if !strings.Contains(errb.String(), "allocation regression(s)") {
			t.Errorf("stderr missing alloc regression summary: %s", errb.String())
		}
		if !strings.Contains(out.String(), "ALLOC REGRESSION") {
			t.Errorf("table missing ALLOC REGRESSION verdict:\n%s", out.String())
		}

		// -alloc-threshold waives it when raised past the growth.
		if code := run([]string{"-alloc-threshold", "2.0", allocBase, head}, &out, &errb); code != 0 {
			t.Fatalf("1.5x under -alloc-threshold 2.0: exit %d, want 0", code)
		}

		// A legacy baseline without alloc fields never trips the gate.
		if code := run([]string{base, head}, &out, &errb); code != 0 {
			t.Fatalf("legacy baseline vs alloc head: exit %d, want 0 (gate skipped)", code)
		}
	})

	t.Run("threshold-flag", func(t *testing.T) {
		slow := testReport()
		slow.Results[0].MinNSOp = 1_500_000 // 1.5x
		head := writeReport(t, dir, "mild.json", slow)
		var out, errb bytes.Buffer
		if code := run([]string{"-threshold", "2.0", base, head}, &out, &errb); code != 0 {
			t.Fatalf("1.5x under -threshold 2.0: exit %d, want 0", code)
		}
		if code := run([]string{"-threshold", "1.2", base, head}, &out, &errb); code != 1 {
			t.Fatalf("1.5x over -threshold 1.2: exit %d, want 1", code)
		}
	})

	t.Run("json-output", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{"-json", base, base}, &out, &errb); code != 0 {
			t.Fatalf("-json: exit %d", code)
		}
		var d benchfmt.Diff
		if err := json.Unmarshal(out.Bytes(), &d); err != nil {
			t.Fatalf("-json output does not decode: %v\n%s", err, out.String())
		}
		if d.Circuit != "s3384" {
			t.Errorf("decoded circuit = %q", d.Circuit)
		}
	})

	t.Run("usage", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run([]string{base}, &out, &errb); code != 2 {
			t.Fatalf("one arg: exit %d, want 2", code)
		}
		if code := run([]string{base, filepath.Join(dir, "missing.json")}, &out, &errb); code != 2 {
			t.Fatalf("missing file: exit %d, want 2", code)
		}
	})
}
