package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"seqver/internal/cec"
)

// Job statuses, as they appear on the wire. The lifecycle is
// queued -> running -> done | failed, with rejected as the terminal
// state of a job that was still queued when the daemon drained,
// retrying as the backoff window between a crashed/killed attempt and
// its requeue, and quarantined as the terminal state of a job whose
// attempts were exhausted by panics or watchdog kills (the poison-job
// defense: it can never monopolize the pool again).
const (
	StatusQueued      = "queued"
	StatusRunning     = "running"
	StatusRetrying    = "retrying"
	StatusDone        = "done"
	StatusFailed      = "failed"
	StatusRejected    = "rejected"
	StatusQuarantined = "quarantined"
)

// SideSpec names one side of a verification pair: either an inline
// BLIF text or a named corpus entry (see CorpusNames). Exactly one
// field must be set.
type SideSpec struct {
	BLIF   string `json:"blif,omitempty"`
	Corpus string `json:"corpus,omitempty"`
}

func (s SideSpec) validate(side string) error {
	if (s.BLIF == "") == (s.Corpus == "") {
		return fmt.Errorf("%s: exactly one of \"blif\" or \"corpus\" must be set", side)
	}
	return nil
}

// JobRequest is the POST /api/v1/jobs body: the pair plus the same
// per-check options the seqver CLI exposes. Zero values select the
// daemon's defaults.
type JobRequest struct {
	Golden  SideSpec `json:"golden"`
	Revised SideSpec `json:"revised"`

	// Engine: "hybrid" (default), "bdd", or "portfolio".
	Engine string `json:"engine,omitempty"`
	// BudgetMS bounds the check's wall clock in milliseconds. 0 selects
	// the daemon's default budget; values above the daemon's maximum
	// are clamped to it (the daemon never runs unbudgeted jobs).
	BudgetMS int64 `json:"budget_ms,omitempty"`
	// Workers is the per-check miter parallelism (0: GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// MaxConflicts bounds each SAT proof (0: engine default).
	MaxConflicts int64 `json:"max_conflicts,omitempty"`
	// Acyclic skips the prepare step: both circuits must already be
	// feedback-free.
	Acyclic bool `json:"acyclic,omitempty"`
	// Rewrite enables Eq. 5 event rewriting on the EDBF path.
	Rewrite bool `json:"rewrite,omitempty"`
	// Unate re-models positive-unate self-loops before exposure.
	Unate bool `json:"unate,omitempty"`
	// NoCache bypasses the result cache for this job (the result is
	// neither looked up nor stored) — for benchmarking the solver path.
	NoCache bool `json:"no_cache,omitempty"`
}

func (r *JobRequest) validate() error {
	if err := r.Golden.validate("golden"); err != nil {
		return err
	}
	if err := r.Revised.validate("revised"); err != nil {
		return err
	}
	if !cec.ValidEngine(r.Engine) {
		return fmt.Errorf("unknown engine %q (want %s)", r.Engine, cec.EngineNames)
	}
	if r.BudgetMS < 0 || r.Workers < 0 || r.MaxConflicts < 0 {
		return fmt.Errorf("budget_ms, workers, and max_conflicts must be non-negative")
	}
	return nil
}

// requestView is the request echo embedded in a JobView: the options,
// and the corpus names but never the inline BLIF text (which can be
// megabytes).
type requestView struct {
	GoldenCorpus  string `json:"golden_corpus,omitempty"`
	RevisedCorpus string `json:"revised_corpus,omitempty"`
	InlineBLIF    bool   `json:"inline_blif,omitempty"`
	Engine        string `json:"engine,omitempty"`
	BudgetMS      int64  `json:"budget_ms,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	MaxConflicts  int64  `json:"max_conflicts,omitempty"`
	Acyclic       bool   `json:"acyclic,omitempty"`
	Rewrite       bool   `json:"rewrite,omitempty"`
	Unate         bool   `json:"unate,omitempty"`
	NoCache       bool   `json:"no_cache,omitempty"`
}

// JobResult is the verdict block of a finished job. ExitCode carries
// the CLI contract (0 equivalent, 1 inequivalent, 2 undecided; failed
// jobs report 3 at the job level) so scripted clients can branch
// identically against the daemon and the CLI.
type JobResult struct {
	Verdict      string `json:"verdict"`
	ExitCode     int    `json:"exit_code"`
	Method       string `json:"method,omitempty"`
	Conservative bool   `json:"conservative,omitempty"`
	Depth        int    `json:"depth,omitempty"`
	Outputs      int    `json:"outputs"`
	// FailingOutput and Counterexample are the replayable witness of an
	// inequivalence (input name in the unrolled window -> value).
	FailingOutput    string          `json:"failing_output,omitempty"`
	Counterexample   map[string]bool `json:"counterexample,omitempty"`
	UndecidedOutputs []string        `json:"undecided_outputs,omitempty"`
	SATCalls         int             `json:"sat_calls"`
	// ElapsedNS is this job's own wall clock (for a cache hit: hash +
	// lookup, no solving).
	ElapsedNS int64 `json:"elapsed_ns"`
	// Cached marks a verdict answered from the result cache; CacheKey
	// is the miter's content address either way. FirstSolveNS is the
	// original decision's wall clock when Cached.
	Cached       bool   `json:"cached"`
	CacheKey     string `json:"cache_key,omitempty"`
	FirstSolveNS int64  `json:"first_solve_ns,omitempty"`
	// Stats is the engine's per-stage accounting (absent on cache hits
	// — no engine ran).
	Stats *cec.Stats `json:"stats,omitempty"`
}

// JobView is the wire representation of a job, returned by the status
// endpoints and the SSE done event.
type JobView struct {
	ID       string      `json:"id"`
	Status   string      `json:"status"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
	Request  requestView `json:"request"`
	Result   *JobResult  `json:"result,omitempty"`
	Error    string      `json:"error,omitempty"`
	// Attempts counts running attempts so far (> 1 after a retry).
	Attempts int `json:"attempts,omitempty"`
	// Recovered marks a job reconstructed from the journal after a
	// daemon restart (its in-memory trace did not survive).
	Recovered bool `json:"recovered,omitempty"`
}

// Job is one queued/running/finished verification. All mutable state
// is guarded by mu; the run loop and the retry scheduler are the only
// writers after submission.
type Job struct {
	ID  string
	req *JobRequest
	fan *fanSink // per-job trace buffer + SSE fan-out

	mu         sync.Mutex
	status     string
	created    time.Time
	started    time.Time
	finished   time.Time
	result     *JobResult
	err        string
	cancel     context.CancelFunc // set while running
	done       chan struct{}      // closed on any terminal status
	attempt    int                // running attempts begun (1-based once started)
	killReason string             // watchdog verdict for the current attempt
	key        string             // miter hash, once computed
	recovered  bool               // reconstructed from the journal
}

func newJob(req *JobRequest, traceBytes int) (*Job, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("serve: job id: %w", err)
	}
	return newJobWithID("j-"+hex.EncodeToString(b[:]), req, traceBytes), nil
}

// newJobWithID builds a job under a fixed id — the journal replay path,
// which must preserve the ids clients are already polling.
func newJobWithID(id string, req *JobRequest, traceBytes int) *Job {
	return &Job{
		ID:      id,
		req:     req,
		fan:     newFanSink(traceBytes),
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
}

// View snapshots the job for the wire.
func (j *Job) View() *JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &JobView{
		ID: j.ID, Status: j.status, Created: j.created,
		Request: requestView{
			GoldenCorpus:  j.req.Golden.Corpus,
			RevisedCorpus: j.req.Revised.Corpus,
			InlineBLIF:    j.req.Golden.BLIF != "" || j.req.Revised.BLIF != "",
			Engine:        j.req.Engine,
			BudgetMS:      j.req.BudgetMS, Workers: j.req.Workers,
			MaxConflicts: j.req.MaxConflicts,
			Acyclic:      j.req.Acyclic, Rewrite: j.req.Rewrite,
			Unate: j.req.Unate, NoCache: j.req.NoCache,
		},
		Result:    j.result,
		Error:     j.err,
		Attempts:  j.attempt,
		Recovered: j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Status returns the job's current status.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// setRunning begins one attempt: bump the attempt counter, arm the
// cancel hook, and reset the watchdog's activity clock so queued time
// never counts toward the stall window.
func (j *Job) setRunning(cancel context.CancelFunc) int {
	j.mu.Lock()
	j.status = StatusRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.cancel = cancel
	j.attempt++
	j.killReason = ""
	attempt := j.attempt
	j.mu.Unlock()
	j.fan.touch()
	return attempt
}

// setRetrying parks the job in the backoff window after a retryable
// failure.
func (j *Job) setRetrying(cause string) {
	j.mu.Lock()
	j.status = StatusRetrying
	j.err = cause
	j.cancel = nil
	j.mu.Unlock()
}

// setQueued returns a retried job to the queue state.
func (j *Job) setQueued() {
	j.mu.Lock()
	j.status = StatusQueued
	j.mu.Unlock()
}

// attempts returns how many running attempts have begun.
func (j *Job) attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// kill records why the watchdog is ending the current attempt and cuts
// its context. The first reason wins.
func (j *Job) kill(reason string) {
	j.mu.Lock()
	if j.killReason == "" {
		j.killReason = reason
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// takeKillReason consumes the watchdog verdict for the finished
// attempt.
func (j *Job) takeKillReason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.killReason
	j.killReason = ""
	return r
}

// setKey records the miter's content address once execute derives it.
func (j *Job) setKey(key string) {
	j.mu.Lock()
	j.key = key
	j.mu.Unlock()
}

func (j *Job) cacheKey() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.key
}

// finishAs moves the job to a terminal status. It is idempotent-hostile
// by design: the worker loop is the only caller and calls it once.
func (j *Job) finishAs(status string, res *JobResult, errMsg string) {
	j.mu.Lock()
	j.status = status
	j.finished = time.Now()
	j.result = res
	j.err = errMsg
	j.cancel = nil
	j.mu.Unlock()
	close(j.done)
	j.fan.finish()
}

// cancelRun interrupts a running job's context (drain deadline).
func (j *Job) cancelRun() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// journalRecords renders the job's current state as the minimal record
// sequence that replays back to it — what compaction writes in place of
// the full append history. Holds j.mu; callers may hold s.mu (the
// established s.mu → j.mu order) and the journal lock.
func (j *Job) journalRecords() []journalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	recs := []journalRecord{{
		Op: jopSubmitted, ID: j.ID, Req: j.req, TS: j.created.UnixNano(),
	}}
	if j.attempt > 0 {
		recs = append(recs, journalRecord{Op: jopStarted, ID: j.ID, Attempt: j.attempt})
	}
	if j.key != "" {
		recs = append(recs, journalRecord{Op: jopKeyed, ID: j.ID, Key: j.key})
	}
	switch j.status {
	case StatusDone:
		recs = append(recs, journalRecord{Op: jopDone, ID: j.ID, Key: j.key, Result: j.result})
	case StatusFailed:
		recs = append(recs, journalRecord{Op: jopFailed, ID: j.ID, Error: j.err})
	case StatusRejected:
		recs = append(recs, journalRecord{Op: jopRejected, ID: j.ID, Error: j.err})
	case StatusQuarantined:
		recs = append(recs, journalRecord{Op: jopQuarantined, ID: j.ID, Error: j.err})
	case StatusRetrying:
		recs = append(recs, journalRecord{Op: jopRetry, ID: j.ID, Attempt: j.attempt, Error: j.err})
	}
	return recs
}

// exitCode maps a verdict to the CLI exit-code contract.
func exitCode(v cec.Verdict) int {
	switch v {
	case cec.Equivalent:
		return 0
	case cec.Inequivalent:
		return 1
	}
	return 2
}
