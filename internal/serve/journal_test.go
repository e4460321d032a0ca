package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// jline marshals one journal record as the JSONL line replay will read.
func jline(t *testing.T, rec journalRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func writeJournal(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func inlineReq() *JobRequest {
	return &JobRequest{Golden: SideSpec{BLIF: goldenSeq}, Revised: SideSpec{BLIF: revisedSeq}}
}

func counterValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	return s.Registry().Counter(name, "").Value()
}

// waitTerminal blocks until the job with the given id reaches a
// terminal status and returns its view.
func waitTerminal(t *testing.T, s *Server, id string) *JobView {
	t.Helper()
	j := s.Job(id)
	if j == nil {
		t.Fatalf("job %s not in table", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never terminal (status %s)", id, j.Status())
	}
	return j.View()
}

// TestJournalReplay is the recovery contract, one scenario per row:
// what a restarted daemon does with each journal shape a crash can
// leave behind.
func TestJournalReplay(t *testing.T) {
	doneResult := &JobResult{Verdict: "equivalent", ExitCode: 0, Outputs: 1, SATCalls: 2}
	cases := []struct {
		name    string
		journal func(t *testing.T) string // journal content
		opt     Options
		check   func(t *testing.T, s *Server)
	}{
		{
			// A journal from a clean shutdown: every job terminal. Replay
			// restores the history verbatim and re-enqueues nothing.
			name: "clean shutdown restores history",
			journal: func(t *testing.T) string {
				return jline(t, journalRecord{Op: jopSubmitted, ID: "j-aa", Req: inlineReq()}) +
					jline(t, journalRecord{Op: jopStarted, ID: "j-aa", Attempt: 1}) +
					jline(t, journalRecord{Op: jopKeyed, ID: "j-aa", Key: testKey(1)}) +
					jline(t, journalRecord{Op: jopDone, ID: "j-aa", Key: testKey(1), Result: doneResult}) +
					jline(t, journalRecord{Op: jopSubmitted, ID: "j-bb", Req: inlineReq()}) +
					jline(t, journalRecord{Op: jopFailed, ID: "j-bb", Error: "golden: parse error"})
			},
			check: func(t *testing.T, s *Server) {
				a := waitTerminal(t, s, "j-aa")
				if a.Status != StatusDone || !a.Recovered || a.Result == nil || a.Result.Verdict != "equivalent" {
					t.Fatalf("done job after replay: %+v", a)
				}
				if a.Attempts != 1 {
					t.Errorf("attempts not restored: %+v", a)
				}
				b := waitTerminal(t, s, "j-bb")
				if b.Status != StatusFailed || !strings.Contains(b.Error, "parse error") {
					t.Fatalf("failed job after replay: %+v", b)
				}
				if n := counterValue(t, s, "seqverd_journal_requeued_total"); n != 0 {
					t.Errorf("clean-shutdown replay requeued %d jobs", n)
				}
				if n := counterValue(t, s, "seqverd_journal_replayed_total"); n != 2 {
					t.Errorf("replayed counter = %d, want 2", n)
				}
			},
		},
		{
			// A job that was queued or running at crash time has no terminal
			// record: replay re-enqueues it and it runs to a real verdict.
			name: "in-flight job requeued and solved",
			journal: func(t *testing.T) string {
				return jline(t, journalRecord{Op: jopSubmitted, ID: "j-inflight", Req: inlineReq()}) +
					jline(t, journalRecord{Op: jopStarted, ID: "j-inflight", Attempt: 1})
			},
			check: func(t *testing.T, s *Server) {
				v := waitTerminal(t, s, "j-inflight")
				if v.Status != StatusDone || v.Result == nil || v.Result.Verdict != "equivalent" {
					t.Fatalf("requeued job: %+v (error %q)", v, v.Error)
				}
				if !v.Recovered || v.Attempts != 2 {
					t.Errorf("recovered=%v attempts=%d, want true/2 (one pre-crash, one here)",
						v.Recovered, v.Attempts)
				}
				if n := counterValue(t, s, "seqverd_journal_requeued_total"); n != 1 {
					t.Errorf("requeued counter = %d, want 1", n)
				}
			},
		},
		{
			// A torn tail — the crash landed mid-append — is truncated away;
			// the good prefix replays normally.
			name: "torn tail truncated",
			journal: func(t *testing.T) string {
				good := jline(t, journalRecord{Op: jopSubmitted, ID: "j-good", Req: inlineReq()}) +
					jline(t, journalRecord{Op: jopDone, ID: "j-good", Result: doneResult})
				return good + `{"op":"submitted","id":"j-torn","req":{"gol` // no newline
			},
			check: func(t *testing.T, s *Server) {
				v := waitTerminal(t, s, "j-good")
				if v.Status != StatusDone {
					t.Fatalf("good prefix lost: %+v", v)
				}
				if s.Job("j-torn") != nil {
					t.Error("torn record resurrected a job")
				}
				if n := counterValue(t, s, "seqverd_journal_torn_records_total"); n != 1 {
					t.Errorf("torn counter = %d, want 1", n)
				}
			},
		},
		{
			// A mangled interior line (fault injection, torn block) is
			// skipped; records after it still replay.
			name: "corrupt interior record skipped",
			journal: func(t *testing.T) string {
				return jline(t, journalRecord{Op: jopSubmitted, ID: "j-one", Req: inlineReq()}) +
					"{\"op\":\"done\",\"id\":\"j-one\",\"resu\n" + // injected torn record
					jline(t, journalRecord{Op: jopSubmitted, ID: "j-two", Req: inlineReq()}) +
					jline(t, journalRecord{Op: jopRejected, ID: "j-two", Error: "draining"})
			},
			check: func(t *testing.T, s *Server) {
				v := waitTerminal(t, s, "j-two")
				if v.Status != StatusRejected {
					t.Fatalf("record after corruption lost: %+v", v)
				}
				// j-one's done record was the corrupted line, so it replays
				// as live and gets re-run — the safe direction.
				one := waitTerminal(t, s, "j-one")
				if one.Status != StatusDone {
					t.Fatalf("j-one after re-run: %+v", one)
				}
				if n := counterValue(t, s, "seqverd_journal_torn_records_total"); n != 1 {
					t.Errorf("torn counter = %d, want 1", n)
				}
			},
		},
		{
			// A job whose journaled attempts already reached MaxAttempts
			// crashed the daemon that many times; replay quarantines it
			// instead of handing it a fresh pool.
			name: "over-attempted job quarantined at replay",
			opt:  Options{MaxAttempts: 2},
			journal: func(t *testing.T) string {
				return jline(t, journalRecord{Op: jopSubmitted, ID: "j-poison", Req: inlineReq()}) +
					jline(t, journalRecord{Op: jopStarted, ID: "j-poison", Attempt: 1}) +
					jline(t, journalRecord{Op: jopRetry, ID: "j-poison", Attempt: 1, Error: "worker panic: boom"}) +
					jline(t, journalRecord{Op: jopStarted, ID: "j-poison", Attempt: 2})
			},
			check: func(t *testing.T, s *Server) {
				v := waitTerminal(t, s, "j-poison")
				if v.Status != StatusQuarantined || !strings.Contains(v.Error, "worker panic") {
					t.Fatalf("poison job after replay: %+v", v)
				}
				if n := counterValue(t, s, "seqverd_quarantined_total"); n != 1 {
					t.Errorf("quarantined counter = %d, want 1", n)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournal(t, dir, tc.journal(t))
			opt := tc.opt
			opt.JournalDir = dir
			opt.Workers = 1
			s, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain(10 * time.Second)
			tc.check(t, s)
		})
	}
}

// TestJournalCacheSatisfiedSkip: a job interrupted after its miter hash
// was journaled but before its verdict landed is answered at replay
// straight from the result cache — no solver runs for it.
func TestJournalCacheSatisfiedSkip(t *testing.T) {
	cacheDir := t.TempDir()

	// First daemon decides the pair and spills the verdict to disk.
	s1, err := New(Options{Workers: 1, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(inlineReq())
	if err != nil {
		t.Fatal(err)
	}
	first := waitTerminal(t, s1, j.ID)
	if first.Status != StatusDone || first.Result.CacheKey == "" {
		t.Fatalf("seed job: %+v", first)
	}
	key := first.Result.CacheKey
	s1.Drain(10 * time.Second)

	// Second daemon wakes to a journal whose job got as far as "keyed"
	// — the crash-mid-solve shape — over the same cache directory.
	jdir := t.TempDir()
	writeJournal(t, jdir,
		jline(t, journalRecord{Op: jopSubmitted, ID: "j-mid", Req: inlineReq()})+
			jline(t, journalRecord{Op: jopStarted, ID: "j-mid", Attempt: 1})+
			jline(t, journalRecord{Op: jopKeyed, ID: "j-mid", Key: key}))
	s2, err := New(Options{Workers: 1, CacheDir: cacheDir, JournalDir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(10 * time.Second)

	v := waitTerminal(t, s2, "j-mid")
	if v.Status != StatusDone || v.Result == nil || !v.Result.Cached {
		t.Fatalf("keyed job not cache-satisfied: %+v", v)
	}
	if v.Result.Verdict != "equivalent" || v.Result.CacheKey != key {
		t.Fatalf("cache-satisfied verdict: %+v", v.Result)
	}
	if n := counterValue(t, s2, "seqverd_journal_cache_satisfied_total"); n != 1 {
		t.Errorf("cache_satisfied counter = %d, want 1", n)
	}
	if n := counterValue(t, s2, "seqverd_journal_requeued_total"); n != 0 {
		t.Errorf("cache-satisfied job was also requeued (%d)", n)
	}
}

// TestJournalSurvivesRestartCycle: submit → drain → restart over the
// same journal dir preserves ids, verdicts, and attempts with no
// re-enqueue — the end-to-end shape of the table above.
func TestJournalSurvivesRestartCycle(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s1.Submit(inlineReq())
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitTerminal(t, s1, j.ID)
	if v1.Status != StatusDone {
		t.Fatalf("first run: %+v", v1)
	}
	s1.Drain(10 * time.Second)

	s2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(10 * time.Second)
	v2 := waitTerminal(t, s2, j.ID)
	if v2.Status != StatusDone || !v2.Recovered {
		t.Fatalf("after restart: %+v", v2)
	}
	if v2.Result == nil || v2.Result.Verdict != v1.Result.Verdict {
		t.Fatalf("verdict changed across restart: %+v -> %+v", v1.Result, v2.Result)
	}
}

// TestJournalReplaysRemovedEngines replays journals written by daemons
// that still accepted a since-removed engine: "sat" (with sat_mode
// "fresh") and "portfolio". Each fixture holds decided jobs, a failed
// job, one job running at the crash and one still queued. Terminal jobs
// come back exactly as journaled — the portfolio fixture's decided
// records still carry per-miter engine attribution and race stats,
// which the lenient reader skips — while the live jobs fail at replay
// with the same unknown-engine error a fresh submit gets: no solver
// run, no retry, no quarantine. A second restart finds them terminal.
func TestJournalReplaysRemovedEngines(t *testing.T) {
	for _, fx := range []struct {
		engine           string
		nTerminal, nJobs int
	}{
		{"sat", 3, 5},
		{"portfolio", 4, 6},
	} {
		t.Run(fx.engine, func(t *testing.T) { replayRemovedEngine(t, fx.engine, fx.nTerminal, fx.nJobs) })
	}
}

func replayRemovedEngine(t *testing.T, engine string, nTerminal, nJobs int) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "journal_engine_"+engine+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's own terminal records are the expected outcomes.
	want := map[string]journalRecord{}
	var jobs []string
	for _, line := range strings.Split(strings.TrimSpace(string(fixture)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Op {
		case jopSubmitted:
			jobs = append(jobs, rec.ID)
		case jopDone, jopFailed:
			want[rec.ID] = rec
		}
	}
	if len(want) != nTerminal || len(jobs) != nJobs {
		t.Fatalf("fixture shape: %d terminal of %d jobs, want %d of %d", len(want), len(jobs), nTerminal, nJobs)
	}
	dir := t.TempDir()
	writeJournal(t, dir, string(fixture))

	for restart := 1; restart <= 2; restart++ {
		s, err := New(Options{Workers: 1, JournalDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range jobs {
			v := waitTerminal(t, s, id)
			rec, terminal := want[id]
			switch {
			case terminal && rec.Op == jopDone:
				if v.Status != StatusDone || v.Result == nil ||
					v.Result.Verdict != rec.Result.Verdict ||
					v.Result.ExitCode != rec.Result.ExitCode ||
					v.Result.FailingOutput != rec.Result.FailingOutput ||
					!reflect.DeepEqual(v.Result.Counterexample, rec.Result.Counterexample) {
					t.Fatalf("restart %d: decided job %s changed: %+v, journaled %+v",
						restart, id, v.Result, rec.Result)
				}
			case terminal:
				if v.Status != StatusFailed || v.Error != rec.Error {
					t.Fatalf("restart %d: failed job %s: %+v, journaled %q", restart, id, v, rec.Error)
				}
			default:
				if v.Status != StatusFailed || v.Result != nil ||
					!strings.Contains(v.Error, `unknown engine "`+engine+`" (want hybrid or bdd)`) {
					t.Fatalf("restart %d: live %s-engine job %s: %+v", restart, engine, id, v)
				}
			}
			if v.Request.Engine != engine || !v.Recovered {
				t.Fatalf("restart %d: job %s request echo %+v recovered=%v",
					restart, id, v.Request, v.Recovered)
			}
		}
		for _, name := range []string{"seqverd_journal_requeued_total",
			"seqverd_retries_total", "seqverd_quarantined_total"} {
			if n := counterValue(t, s, name); n != 0 {
				t.Errorf("restart %d: %s = %d, want 0", restart, name, n)
			}
		}
		s.Drain(10 * time.Second)
	}
}

// TestJournalCompaction: the journal is rewritten down to the
// remembered job table once it outgrows the threshold, and the
// compacted file still replays.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Workers: 1, JournalDir: dir, JournalCompactBytes: 1024, MaxJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	req := inlineReq()
	req.NoCache = true // force a full solve per job: more journal traffic
	var lastID string
	for i := 0; i < 6; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		lastID = j.ID
		if v := waitTerminal(t, s, j.ID); v.Status != StatusDone {
			t.Fatalf("job %d: %+v", i, v)
		}
	}
	// Startup always compacts once; crossing the 1 KiB threshold must
	// have forced at least one more rewrite.
	if n := counterValue(t, s, "seqverd_journal_compactions_total"); n < 2 {
		t.Errorf("compactions = %d, want >= 2 past a 1 KiB threshold", n)
	}
	s.Drain(10 * time.Second)

	// The compacted journal holds exactly the retained history.
	s2, err := New(Options{Workers: 1, JournalDir: dir, MaxJobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Drain(10 * time.Second)
	v := waitTerminal(t, s2, lastID)
	if v.Status != StatusDone || !v.Recovered {
		t.Fatalf("last job after compacted replay: %+v", v)
	}
	if n := counterValue(t, s2, "seqverd_journal_requeued_total"); n != 0 {
		t.Errorf("compacted terminal history requeued %d jobs", n)
	}
}

// TestJournalTornTailFileTruncated pins the on-disk behavior: the torn
// bytes are physically removed so the next append starts on a clean
// line boundary.
func TestJournalTornTailFileTruncated(t *testing.T) {
	dir := t.TempDir()
	good := jline(t, journalRecord{Op: jopSubmitted, ID: "j-x", Req: inlineReq()}) +
		jline(t, journalRecord{Op: jopDone, ID: "j-x", Result: &JobResult{Verdict: "equivalent", Outputs: 1}})
	writeJournal(t, dir, good+"{\"op\":\"started\",\"id\":\"j-x\"")

	s, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain(10 * time.Second)
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("journal does not end on a line boundary after torn-tail recovery (%d bytes)", len(data))
	}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d unparseable after recovery: %v in %q", i, err, line)
		}
	}
}
