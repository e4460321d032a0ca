// Package serve is the verification daemon: a bounded job queue and
// worker pool in front of the core pipeline, a content-addressed result
// cache keyed by the prepared miter's structural hash, and the HTTP API
// (see docs/API.md) that cmd/seqverd mounts. The package is a library —
// tests and embedders run a Server against httptest without a process
// boundary.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/faults"
	"seqver/internal/metrics"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Options configures a Server. Zero values select the documented
// defaults.
type Options struct {
	// Workers is the verification pool size — how many jobs solve
	// concurrently (default 2). Each job additionally parallelizes its
	// own miters per its request's workers option.
	Workers int
	// QueueDepth bounds waiting jobs; a full queue answers 503 (default 64).
	QueueDepth int
	// DefaultBudget is applied when a request leaves budget_ms at 0
	// (default 30s). MaxBudget clamps requested budgets (default 5m);
	// the daemon never runs an unbudgeted job.
	DefaultBudget time.Duration
	MaxBudget     time.Duration
	// MaxBodyBytes bounds a submission body (default 8 MiB).
	MaxBodyBytes int64
	// CacheBytes is the result cache's in-memory budget (default 64 MiB);
	// CacheDir, when non-empty, enables the write-through disk spill.
	CacheBytes int64
	CacheDir   string
	// TraceBytes caps each job's buffered JSONL trace (default 4 MiB).
	TraceBytes int
	// MaxJobs bounds the finished-job history kept for GET (default 1024);
	// the oldest terminal jobs are forgotten past it.
	MaxJobs int
	// Registry receives the daemon's metric series; nil creates one.
	Registry *metrics.Registry

	// Logger receives the daemon's structured logs (nil: discard). Wrap
	// the handler in obs.NewLogHandler so every line under a job or
	// request context carries its correlation ids automatically.
	Logger *slog.Logger
	// TimeSeriesCapacity / SampleInterval shape the in-daemon stats ring
	// behind /api/v1/stats/timeseries (defaults 900 samples × 1 s).
	TimeSeriesCapacity int
	SampleInterval     time.Duration

	// JournalDir, when non-empty, enables the durable job journal: an
	// append-only JSONL write-ahead log of job lifecycle transitions.
	// On startup the journal is replayed — jobs that were queued or in
	// flight at crash time are re-enqueued (or answered straight from
	// the result cache via their recorded miter hash), terminal jobs are
	// restored into the history, and a torn tail is truncated away.
	JournalDir string
	// JournalFsync forces an fsync per journal append. Off by default:
	// appends already survive process death (SIGKILL/OOM) without it;
	// fsync additionally covers power loss at a per-record write cost.
	JournalFsync bool
	// JournalCompactBytes triggers a compaction rewrite once the journal
	// file outgrows it (default 8 MiB).
	JournalCompactBytes int64

	// MaxAttempts caps running attempts per job (default 3). A job whose
	// attempts are exhausted by panics or watchdog kills is quarantined.
	MaxAttempts int
	// StallTimeout is the per-job watchdog's stall window (default 2m):
	// a running attempt that emits no trace events for this long is
	// killed and retried. Negative disables the stall watchdog.
	StallTimeout time.Duration
	// MemCeilingBytes kills the running attempt when the process heap in
	// use (metrics.HeapInuseBytes) crosses it (0 disables). The ceiling
	// is process-wide — Go cannot attribute heap to a job — so it is a
	// circuit breaker, not a quota.
	MemCeilingBytes int64
	// RetryBaseBackoff/RetryMaxBackoff shape the retry schedule:
	// base·2^(attempt-1) + jitter, capped at max (defaults 500ms / 30s).
	RetryBaseBackoff time.Duration
	RetryMaxBackoff  time.Duration
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultBudget <= 0 {
		o.DefaultBudget = 30 * time.Second
	}
	if o.MaxBudget <= 0 {
		o.MaxBudget = 5 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.TraceBytes <= 0 {
		o.TraceBytes = 4 << 20
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.Registry == nil {
		o.Registry = metrics.NewRegistry()
	}
	if o.JournalCompactBytes <= 0 {
		o.JournalCompactBytes = 8 << 20
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.StallTimeout == 0 {
		o.StallTimeout = 2 * time.Minute
	}
	if o.RetryBaseBackoff <= 0 {
		o.RetryBaseBackoff = 500 * time.Millisecond
	}
	if o.RetryMaxBackoff <= 0 {
		o.RetryMaxBackoff = 30 * time.Second
	}
}

// Submission failure modes the HTTP layer maps to 503 + Retry-After.
var (
	ErrDraining  = errors.New("serve: draining, not accepting jobs")
	ErrQueueFull = errors.New("serve: job queue full")
)

// Server owns the queue, the worker pool, the job table, and the result
// cache. Create with New, stop with Drain.
type Server struct {
	opt     Options
	reg     *metrics.Registry
	cache   *Cache
	corpus  *corpus
	journal *journal // nil when JournalDir is empty
	log     *slog.Logger

	tsr     *metrics.TimeSeries
	sampler *metrics.Sampler
	ready   atomic.Bool

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string // submission order, for listing and retention
	queue       chan *Job
	draining    bool
	retryTimers map[string]*time.Timer // jobs parked in a backoff window

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
	drainOnce  sync.Once

	queuedG, runningG *metrics.Gauge
	jobSeconds        *metrics.Histogram

	// testRunGate, when set (tests only), is called after a job enters
	// the running state and before the pipeline executes — the seam the
	// drain tests use to hold a job in flight deterministically. The
	// context is the job's run context (canceled by the drain deadline).
	testRunGate func(context.Context, *Job)
}

// New starts a Server's worker pool and returns it ready to accept
// submissions. With Options.JournalDir set it first recovers from the
// journal: terminal jobs reappear in the history, interrupted jobs are
// re-enqueued (or answered from the result cache by their recorded
// miter hash), over-attempted jobs are quarantined, and the journal is
// compacted before the pool starts.
func New(opt Options) (*Server, error) {
	opt.defaults()
	cache, err := NewCache(opt.CacheBytes, opt.CacheDir, opt.Registry)
	if err != nil {
		return nil, err
	}
	var jn *journal
	var recovered []*replayedJob
	if opt.JournalDir != "" {
		jn, recovered, err = openJournal(opt.JournalDir, opt.JournalFsync, opt.Registry)
		if err != nil {
			return nil, err
		}
	}
	logger := opt.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt: opt, reg: opt.Registry, cache: cache, corpus: newCorpus(),
		journal:     jn,
		log:         logger,
		tsr:         metrics.NewTimeSeries(opt.TimeSeriesCapacity, opt.SampleInterval),
		jobs:        map[string]*Job{},
		retryTimers: map[string]*time.Timer{},
		// Recovered live jobs must all fit back into the queue even when
		// there are more of them than QueueDepth, so the buffer grows by
		// the recovery count for this process's lifetime.
		queue:   make(chan *Job, opt.QueueDepth+len(recovered)),
		baseCtx: ctx, baseCancel: cancel,
		queuedG: opt.Registry.Gauge("seqver_jobs_queued",
			"Jobs waiting in the daemon's queue."),
		runningG: opt.Registry.Gauge("seqver_jobs_running",
			"Jobs currently being verified."),
		jobSeconds: opt.Registry.Histogram("seqver_job_seconds",
			"Wall clock of finished jobs, submission to verdict."),
	}
	s.recover(recovered)
	s.compactJournal()
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.sampler = metrics.StartSampler(s.tsr, s.collector())
	s.ready.Store(true)
	s.log.Info("daemon ready",
		slog.Int("workers", opt.Workers),
		slog.Int("queue_depth", opt.QueueDepth),
		slog.Int("recovered_jobs", len(recovered)))
	return s, nil
}

// collector builds the sampler callback: one metrics.Sample per tick,
// with throughput rates as counter deltas and latency quantiles as the
// windowed delta of the job-latency histogram. The closure's previous
// values need no locking — only the sampler goroutine calls it.
func (s *Server) collector() func(time.Time) metrics.Sample {
	verdicts := func(v string) int64 { return s.jobVerdicts(v).Value() }
	outcomes := func(o string) int64 {
		return s.reg.CounterL("seqver_jobs_total",
			"Jobs accepted by the daemon, by outcome.", "outcome", o).Value()
	}
	type counts struct{ decided, undecided, failed, rejected int64 }
	read := func() counts {
		return counts{
			decided:   verdicts("equivalent") + verdicts("inequivalent"),
			undecided: verdicts("undecided"),
			failed:    outcomes(StatusFailed) + outcomes(StatusQuarantined),
			rejected:  outcomes(StatusRejected),
		}
	}
	prev := read()
	prevHist := s.jobSeconds.Snapshot()
	prevT := time.Now()
	rtc := metrics.NewRuntimeCollector(s.reg)
	return func(now time.Time) metrics.Sample {
		rt := rtc.Collect(now)
		cur := read()
		hist := s.jobSeconds.Snapshot()
		dt := now.Sub(prevT).Seconds()
		if dt <= 0 {
			dt = s.tsr.Interval().Seconds()
		}
		smp := metrics.Sample{
			TS:              now.UnixMilli(),
			QueueDepth:      s.queuedG.Value(),
			Running:         s.runningG.Value(),
			DecidedPerSec:   float64(cur.decided-prev.decided) / dt,
			UndecidedPerSec: float64(cur.undecided-prev.undecided) / dt,
			FailedPerSec:    float64(cur.failed-prev.failed) / dt,
			RejectedPerSec:  float64(cur.rejected-prev.rejected) / dt,

			HeapInuseBytes:    rt.HeapInuseBytes,
			Goroutines:        rt.Goroutines,
			AllocBytesPerSec:  rt.AllocBytesPerSec,
			GCPauseP99Seconds: rt.GCPauseP99Seconds,
		}
		if cs := s.cache.Stats(); cs.Hits+cs.Misses > 0 {
			smp.CacheHitRatio = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		if delta := hist.Sub(prevHist); delta.Count > 0 {
			smp.P50Seconds = delta.Quantile(0.5) / 1e9
			smp.P99Seconds = delta.Quantile(0.99) / 1e9
		}
		prev, prevHist, prevT = cur, hist, now
		return smp
	}
}

// jobVerdicts is the by-verdict counter family behind the dashboard's
// throughput rates (done jobs only; outcome counters cover the rest).
func (s *Server) jobVerdicts(verdict string) *metrics.Counter {
	return s.reg.CounterL("seqverd_job_verdicts_total",
		"Jobs finished as done, by verdict.", "verdict", verdict)
}

// TimeSeries exposes the stats ring (the /api/v1/stats/timeseries
// backing store) for embedders and tests.
func (s *Server) TimeSeries() *metrics.TimeSeries { return s.tsr }

// recover folds the replayed journal into the job table before the
// worker pool starts (no locking needed yet, but the normal helpers
// take the locks anyway). Recovery never re-counts jobs into the
// seqver_jobs_total outcome counters — those events belong to the
// process that first observed them.
func (s *Server) recover(recovered []*replayedJob) {
	requeued := s.reg.Counter("seqverd_journal_requeued_total",
		"Interrupted jobs re-enqueued from the journal at startup.")
	satisfied := s.reg.Counter("seqverd_journal_cache_satisfied_total",
		"Interrupted jobs answered at replay from the result cache by their journaled miter hash.")
	for _, rj := range recovered {
		j := newJobWithID(rj.id, rj.req, s.opt.TraceBytes)
		j.recovered = true
		j.attempt = rj.attempts
		j.key = rj.key
		if !rj.created.IsZero() && rj.created.Unix() > 0 {
			j.created = rj.created
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		switch {
		case rj.terminal != "":
			// Already terminal before the crash: restore the outcome
			// verbatim. finishAs (not finishJob) — no re-journal, no
			// outcome re-count.
			j.finishAs(rj.terminal, rj.result, rj.errMsg)
		case rj.key != "":
			if hit := s.cache.Get(rj.key); hit != nil {
				// The verdict this job was interrupted before recording is
				// already content-addressed in the cache: answer it now
				// without a solver. The journal gets a real done record.
				satisfied.Inc()
				s.finishJob(j, StatusDone, &JobResult{
					Verdict: hit.Verdict, ExitCode: hit.ExitCode,
					Method: hit.Method, Conservative: hit.Conservative,
					Depth: hit.Depth, Outputs: hit.Outputs,
					FailingOutput: hit.FailingOutput, Counterexample: hit.Counterexample,
					SATCalls: hit.SATCalls,
					Cached:   true, CacheKey: rj.key, FirstSolveNS: hit.SolveNS,
				}, "")
				continue
			}
			fallthrough
		default:
			if err := rj.req.validate(); err != nil {
				// Journaled by an older daemon under options this one no
				// longer accepts (e.g. engine "sat"): fail it now with the
				// same message a fresh submit would get, instead of
				// running it into an engine error or the retry ladder.
				s.finishJob(j, StatusFailed, nil, err.Error())
				continue
			}
			if rj.attempts >= s.opt.MaxAttempts {
				// A job that already burned its attempts (possibly crashing
				// the daemon each time) must not get a fresh pool to wedge:
				// quarantine it at replay.
				s.reg.Counter("seqverd_quarantined_total",
					"Jobs quarantined after exhausting their retry attempts.").Inc()
				s.finishJob(j, StatusQuarantined, nil, fmt.Sprintf(
					"quarantined at recovery after %d attempts (last: %s)",
					rj.attempts, orUnknown(rj.errMsg)))
				continue
			}
			requeued.Inc()
			s.queue <- j // capacity reserved above; never blocks
			s.queuedG.Add(1)
		}
	}
	s.retainLocked()
}

func orUnknown(msg string) string {
	if msg == "" {
		return "interrupted by daemon crash"
	}
	return msg
}

// Registry returns the metric registry the daemon reports into.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// CacheStats snapshots the result cache.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// CorpusNames lists the built-in corpus (base names; each also has a
// ":synth" variant).
func (s *Server) CorpusNames() []string { return s.corpus.names() }

// Submit validates and enqueues a job. It fails fast — ErrDraining
// during shutdown, ErrQueueFull past QueueDepth — rather than blocking
// the caller. The journal's submitted record is appended before the job
// is visible, so a crash after Submit returns can never forget the job.
func (s *Server) Submit(req *JobRequest) (*Job, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	j, err := newJob(req, s.opt.TraceBytes)
	if err != nil {
		return nil, err
	}
	s.journalAppend(journalRecord{Op: jopSubmitted, ID: j.ID, Req: req})
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.journalAppend(journalRecord{Op: jopRejected, ID: j.ID, Error: "draining"})
		return nil, ErrDraining
	}
	if len(s.queue) >= s.opt.QueueDepth {
		// Compare against QueueDepth, not channel capacity: recovery may
		// have grown the buffer, which must not raise the admission bound.
		s.mu.Unlock()
		s.journalAppend(journalRecord{Op: jopRejected, ID: j.ID, Error: "queue full"})
		return nil, ErrQueueFull
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.journalAppend(journalRecord{Op: jopRejected, ID: j.ID, Error: "queue full"})
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.retainLocked()
	s.mu.Unlock()
	s.queuedG.Add(1)
	s.reg.CounterL("seqver_jobs_total",
		"Jobs accepted by the daemon, by outcome.", "outcome", "accepted").Inc()
	return j, nil
}

// journalAppend records one lifecycle transition (no-op without a
// journal). Callers must not hold s.mu — compaction acquires the
// journal lock before s.mu, and appends take only the journal lock.
func (s *Server) journalAppend(rec journalRecord) {
	s.journal.append(rec)
}

// compactJournal rewrites the journal down to the remembered job table
// when it has outgrown the compaction threshold (always at startup).
// The snapshot runs under the journal lock so no append can land in the
// doomed file while the replacement is being written.
func (s *Server) compactJournal() {
	if s.journal == nil {
		return
	}
	s.journal.rewrite(func() []journalRecord {
		s.mu.Lock()
		defer s.mu.Unlock()
		var recs []journalRecord
		for _, id := range s.order {
			if j := s.jobs[id]; j != nil {
				recs = append(recs, j.journalRecords()...)
			}
		}
		return recs
	})
}

// retainLocked forgets the oldest terminal jobs past the MaxJobs
// history bound. Queued/running jobs are never dropped.
func (s *Server) retainLocked() {
	excess := len(s.order) - s.opt.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && isTerminal(j.Status()) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func isTerminal(status string) bool {
	switch status {
	case StatusDone, StatusFailed, StatusRejected, StatusQuarantined:
		return true
	}
	return false
}

// Job returns the job with the given id, or nil.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// JobViews snapshots all remembered jobs, newest first.
func (s *Server) JobViews() []*JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j := s.jobs[ids[i]]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]*JobView, len(jobs))
	for i, j := range jobs {
		out[i] = j.View()
	}
	return out
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops the daemon gracefully: new submissions are refused,
// still-queued jobs finish as rejected (jobs parked in retry backoff
// likewise), and in-flight jobs get up to timeout to complete — past it
// their contexts are canceled, degrading their verdicts to undecided
// (never a wrong answer). Drain blocks until the pool is idle and is
// safe to call more than once.
func (s *Server) Drain(timeout time.Duration) {
	s.drainOnce.Do(func() {
		s.log.Info("draining", slog.Duration("timeout", timeout))
		s.mu.Lock()
		s.draining = true
		timers := s.retryTimers
		s.retryTimers = map[string]*time.Timer{}
		s.mu.Unlock()
		// Resolve the retry backlog: a stopped timer's job is rejected
		// here; a timer that already fired resolves itself in requeue
		// (which sees draining) or lands in the queue before close below
		// — requeue and Submit both check draining under mu first.
		for id, t := range timers {
			if t.Stop() {
				if j := s.Job(id); j != nil {
					s.finishJob(j, StatusRejected, nil, "daemon draining during retry backoff")
				}
			}
		}
		// Safe: every send happens under mu with draining false.
		close(s.queue)
		done := make(chan struct{})
		go func() { s.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(timeout):
			s.baseCancel()
			<-done
		}
		s.baseCancel()
		// The final drain sample closes the time series at the instant the
		// pool went idle, then the journal compacts and closes.
		s.sampler.Stop()
		s.compactJournal()
		s.journal.close()
		s.log.Info("drained")
	})
}

// worker drains the queue: it runs jobs until Drain closes the channel,
// rejecting any job that was still queued when draining began.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.queuedG.Add(-1)
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			s.finishJob(j, StatusRejected, nil, "daemon draining before the job started")
			continue
		}
		s.run(j)
	}
}

func (s *Server) countOutcome(status string) {
	s.reg.CounterL("seqver_jobs_total",
		"Jobs accepted by the daemon, by outcome.", "outcome", status).Inc()
}

// finishJob moves a job to a terminal status: journal first (a crash
// after the append can only re-deliver the outcome, never lose it),
// then the outcome counter, then the in-memory transition that wakes
// waiters. Callers must not hold s.mu. A journal past its compaction
// threshold is rewritten afterwards.
func (s *Server) finishJob(j *Job, status string, res *JobResult, errMsg string) {
	rec := journalRecord{Op: "", ID: j.ID, Error: errMsg}
	switch status {
	case StatusDone:
		rec.Op, rec.Result, rec.Key, rec.Error = jopDone, res, j.cacheKey(), ""
	case StatusFailed:
		rec.Op = jopFailed
	case StatusRejected:
		rec.Op = jopRejected
	case StatusQuarantined:
		rec.Op = jopQuarantined
	}
	if rec.Op != "" {
		s.journalAppend(rec)
	}
	s.countOutcome(status)
	attrs := []slog.Attr{slog.String("job_id", j.ID), slog.String("status", status)}
	level := slog.LevelInfo
	switch {
	case status == StatusDone && res != nil:
		s.jobVerdicts(res.Verdict).Inc()
		attrs = append(attrs,
			slog.String("verdict", res.Verdict),
			slog.Duration("elapsed", time.Duration(res.ElapsedNS)),
			slog.Bool("cached", res.Cached))
	case status == StatusFailed || status == StatusQuarantined:
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", errMsg))
	default:
		attrs = append(attrs, slog.String("error", errMsg))
	}
	s.log.LogAttrs(context.Background(), level, "job finished", attrs...)
	j.finishAs(status, res, errMsg)
	if s.journal != nil && s.journal.size() > s.opt.JournalCompactBytes {
		s.compactJournal()
	}
}

// run executes one attempt of a job under its own tracer and watchdog:
// the job's fanSink receives the trace (buffer + SSE), the shared
// registry aggregates the engine's metric events across jobs, and the
// watchdog kills the attempt on stall or memory-ceiling breach. The
// outcome is classified here: a verdict finishes the job; a watchdog
// kill or panic is retryable (backoff + degraded ladder, quarantine
// past MaxAttempts); a deterministic pipeline error — bad input — fails
// it permanently, because re-running a parse error is pure waste.
func (s *Server) run(j *Job) {
	s.runningG.Add(1)
	defer s.runningG.Add(-1)
	// A retried attempt restarts the trace: one tracer's span ids per
	// buffer keeps the served trace schema-valid.
	if j.attempts() > 0 {
		j.fan.reset()
	}
	tr := obs.New(j.fan, metrics.NewSink(s.reg))
	ctx := obs.WithTracer(s.baseCtx, tr)
	// The job id rides the context as baggage from here on: every span
	// the pipeline opens and every slog line under this context carries
	// job_id without the call sites knowing about it.
	ctx = obs.WithBaggage(ctx, obs.S("job_id", j.ID))
	// The same id becomes a runtime/pprof goroutine label, inherited by
	// every goroutine the attempt spawns (miter pool included), so CPU
	// and goroutine profiles slice by job even with the tracer off.
	ctx, unlabel := obs.GoroutineLabels(ctx)
	defer unlabel()
	ctx, cancel := context.WithCancel(ctx)
	attempt := j.setRunning(cancel)
	s.journalAppend(journalRecord{Op: jopStarted, ID: j.ID, Attempt: attempt})
	s.log.LogAttrs(ctx, slog.LevelInfo, "attempt started",
		slog.Int("attempt", attempt))
	stopWatchdog := s.startWatchdog(j)
	if s.testRunGate != nil {
		s.testRunGate(ctx, j)
	}
	res, errMsg, panicked := s.executeGuarded(ctx, j, attempt)
	stopWatchdog()
	cancel()
	tr.Close() // flush the trace before subscribers see the terminal state
	kill := j.takeKillReason()

	// A decided verdict always wins, even against a late watchdog kill —
	// it is correct by construction and discarding it would be waste.
	if errMsg == "" && res != nil && (kill == "" || res.ExitCode != 2) {
		s.jobSeconds.Observe(res.ElapsedNS)
		s.finishJob(j, StatusDone, res, "")
		return
	}
	switch {
	case kill != "":
		s.retryOrQuarantine(j, "watchdog kill: "+kill)
	case panicked:
		s.retryOrQuarantine(j, errMsg)
	default:
		s.finishJob(j, StatusFailed, nil, errMsg)
	}
}

// executeGuarded wraps execute with the panic boundary and the
// fault-injection points that model a crashing or wedged worker. The
// returned panicked flag routes the failure into the retry path.
func (s *Server) executeGuarded(ctx context.Context, j *Job, attempt int) (res *JobResult, errMsg string, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res, errMsg, panicked = nil, fmt.Sprintf("worker panic: %v", r), true
		}
	}()
	if faults.Fire(faults.WorkerPanic) {
		panic("injected worker panic (faults.worker_panic)")
	}
	if faults.Fire(faults.SolverStall) {
		// A wedged solver: no progress events, no return until the
		// watchdog (or drain) cuts the context.
		<-ctx.Done()
		return nil, "solver stalled (faults.solver_stall)", false
	}
	res, errMsg = s.execute(ctx, j, attempt)
	return res, errMsg, false
}

// execute runs the pipeline for one job: resolve both sides, reduce to
// a combinational miter, consult the result cache by the miter's
// structural hash, and only on a miss spend solver time. The returned
// error string (not error) is the job's failure message. Retried
// attempts run under retryBudget's budget ladder.
func (s *Server) execute(ctx context.Context, j *Job, attempt int) (*JobResult, string) {
	start := time.Now()
	req := j.req
	ctx, root := obs.Start(ctx, "job", obs.S("job", j.ID), obs.I("attempt", int64(attempt)))
	defer root.End()

	c1, err := s.resolveSide(req.Golden, "golden")
	if err != nil {
		return nil, err.Error()
	}
	c2, err := s.resolveSide(req.Revised, "revised")
	if err != nil {
		return nil, err.Error()
	}

	var u *core.Unrolled
	if req.Acyclic {
		u, err = core.UnrollAcyclicCtx(ctx, c1, c2, req.Rewrite)
	} else {
		u, err = core.UnrollPairCtx(ctx, c1, c2,
			core.PrepareOptions{UnateAware: req.Unate}, req.Rewrite)
	}
	if err != nil {
		return nil, err.Error()
	}

	// Cache consultation is its own span so a hit's trace shows exactly
	// where the verdict came from — and, by the absence of a "cec" span,
	// that no solver ran.
	var key string
	var hit *CachedResult
	if !req.NoCache {
		_, csp := obs.Start(ctx, "cache.lookup")
		key = u.MiterHash()
		// The miter hash is the job's idempotency key: journal it before
		// solving so a crash mid-solve lets replay answer this job from
		// the cache instead of re-running it.
		j.setKey(key)
		s.journalAppend(journalRecord{Op: jopKeyed, ID: j.ID, Key: key})
		hit = s.cache.Get(key)
		outcome := "miss"
		if hit != nil {
			outcome = "hit"
		}
		csp.Event("cache", obs.S("outcome", outcome))
		csp.End()
	}
	if hit != nil {
		return &JobResult{
			Verdict: hit.Verdict, ExitCode: hit.ExitCode,
			Method: u.Method, Conservative: u.Conservative, Depth: u.Depth,
			Outputs: hit.Outputs, FailingOutput: hit.FailingOutput,
			Counterexample: hit.Counterexample, SATCalls: hit.SATCalls,
			ElapsedNS: time.Since(start).Nanoseconds(),
			Cached:    true, CacheKey: key, FirstSolveNS: hit.SolveNS,
		}, ""
	}

	opt := cec.Options{
		Engine: req.Engine, MaxConflicts: req.MaxConflicts, Workers: req.Workers,
		Budget: s.clampBudget(retryBudget(req, attempt, s.opt.DefaultBudget)),
	}
	res, err := u.CheckCtx(ctx, opt)
	if err != nil {
		return nil, err.Error()
	}
	out := &JobResult{
		Verdict: res.Verdict.String(), ExitCode: exitCode(res.Verdict),
		Method: u.Method, Conservative: u.Conservative, Depth: u.Depth,
		Outputs: res.Outputs, FailingOutput: res.FailingOutput,
		Counterexample: res.Counterexample, UndecidedOutputs: res.UndecidedOutputs,
		SATCalls: res.SATCalls, ElapsedNS: time.Since(start).Nanoseconds(),
		CacheKey: key, Stats: res.Stats,
	}
	if !req.NoCache && key != "" && res.Verdict != cec.Undecided {
		s.cache.Put(key, &CachedResult{
			Verdict: out.Verdict, ExitCode: out.ExitCode,
			Method: u.Method, Conservative: u.Conservative, Depth: u.Depth,
			Outputs: res.Outputs, FailingOutput: res.FailingOutput,
			Counterexample: res.Counterexample, SATCalls: res.SATCalls,
			SolveNS: res.Elapsed.Nanoseconds(),
		})
	}
	return out, ""
}

// clampBudget maps the request's budget_ms to the daemon's bounds: 0
// selects the default, anything above the maximum is clamped to it.
func (s *Server) clampBudget(ms int64) time.Duration {
	b := time.Duration(ms) * time.Millisecond
	if b <= 0 {
		return s.opt.DefaultBudget
	}
	if b > s.opt.MaxBudget {
		return s.opt.MaxBudget
	}
	return b
}

// resolveSide materializes one side of the pair from inline BLIF or the
// corpus.
func (s *Server) resolveSide(spec SideSpec, side string) (*netlist.Circuit, error) {
	if faults.Fire(faults.SlowParse) {
		time.Sleep(faults.Delay())
	}
	if spec.Corpus != "" {
		c, err := s.corpus.resolve(spec.Corpus)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", side, err)
		}
		return c, nil
	}
	c, err := netlist.ParseBLIF(strings.NewReader(spec.BLIF))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", side, err)
	}
	return c, nil
}
