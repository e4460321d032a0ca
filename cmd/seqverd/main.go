// Command seqverd is the verification daemon: a long-running service
// that accepts sequential-equivalence jobs over HTTP, runs them on a
// bounded worker pool, and answers repeat submissions from a
// content-addressed result cache keyed by the prepared miter's
// structural hash. docs/API.md documents the wire protocol.
//
// Usage:
//
//	seqverd [-addr :7333] [-pool N] [-queue N]
//	        [-default-budget DUR] [-max-budget DUR]
//	        [-cache-bytes N] [-cache-dir DIR]
//	        [-journal-dir DIR] [-journal-fsync]
//	        [-max-attempts N] [-stall-timeout DUR] [-mem-ceiling N]
//	        [-drain-timeout DUR] [-trace-bytes N] [-max-body N]
//	        [-log-level LEVEL] [-log-format FMT]
//	        [-faults SPEC]
//
// The API lives under /api/v1 (submit POST /api/v1/jobs, poll
// GET /api/v1/jobs/{id}, stream GET /api/v1/jobs/{id}/events, waterfall
// GET /api/v1/jobs/{id}/report, history GET /api/v1/stats/timeseries);
// the same listener also serves the observability surface — the live
// /dashboard cockpit, the /readyz readiness probe, Prometheus /metrics
// (including seqver_cache_{hits,misses,evictions}_total and the
// seqver_job_seconds and seqver_jobs_total{outcome} series), /healthz,
// /debug/vars, and /debug/pprof — `go tool pprof
// http://HOST/debug/pprof/heap` profiles a running daemon.
//
// Logs are structured (log/slog): -log-format json (default) or text,
// -log-level debug|info|warn|error. Every line under a job or HTTP
// request carries its job_id / request_id automatically, so one grep
// follows a job across the access log and the worker lifecycle.
//
// On SIGTERM or SIGINT the daemon drains: new submissions get 503 +
// Retry-After, jobs still queued finish as "rejected", and in-flight
// jobs get -drain-timeout to complete before their budgets are cut
// (degrading verdicts to undecided, never to a wrong answer). A second
// signal exits immediately. /readyz flips to {"state":"draining"} the
// moment the drain begins.
//
// With -journal-dir the daemon is crash-safe: every job lifecycle
// transition is appended to a JSONL write-ahead log, and a daemon that
// dies uncleanly (SIGKILL, OOM) restarts by replaying it — finished
// jobs reappear with their verdicts, interrupted jobs are re-enqueued
// or answered from the result cache by their journaled miter hash.
// -max-attempts, -stall-timeout, and -mem-ceiling tune the per-job
// watchdog and retry ladder; docs/OPERATIONS.md is the runbook.
//
// -faults (or SEQVERD_FAULTS) enables deterministic fault injection for
// chaos testing — never set it in production. See internal/faults.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"seqver/internal/faults"
	"seqver/internal/obs"
	"seqver/internal/serve"
)

func main() { os.Exit(run()) }

// config holds seqverd's flag values. The serve.Options fields the
// flags leave unset take the package defaults.
type config struct {
	addr         string
	drainTimeout time.Duration
	logLevel     string
	logFormat    string
	faultSpec    string
	serve        serve.Options
}

// newFlagSet registers every seqverd flag on one FlagSet, writing into
// cfg. It is the single list of the daemon's flags; docs/API.md's flag
// table is checked against it.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("seqverd", flag.ExitOnError)
	o := &cfg.serve
	fs.StringVar(&cfg.addr, "addr", ":7333", "HTTP listen address")
	fs.IntVar(&o.Workers, "pool", 2, "verification worker pool size (jobs solved concurrently)")
	fs.IntVar(&o.QueueDepth, "queue", 64, "queued-job bound; a full queue answers 503")
	fs.DurationVar(&o.DefaultBudget, "default-budget", 30*time.Second, "per-job wall-clock budget when the request omits budget_ms")
	fs.DurationVar(&o.MaxBudget, "max-budget", 5*time.Minute, "hard cap on a requested per-job budget")
	fs.Int64Var(&o.CacheBytes, "cache-bytes", 64<<20, "in-memory result cache budget in bytes")
	fs.StringVar(&o.CacheDir, "cache-dir", "", "persist cache entries to DIR (survives restarts; empty: memory only)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "time in-flight jobs get to finish after SIGTERM")
	fs.IntVar(&o.TraceBytes, "trace-bytes", 4<<20, "per-job buffered trace cap in bytes")
	fs.Int64Var(&o.MaxBodyBytes, "max-body", 8<<20, "maximum submission body size in bytes")
	fs.StringVar(&o.JournalDir, "journal-dir", "", "durable job journal directory (crash recovery; empty: in-memory only)")
	fs.BoolVar(&o.JournalFsync, "journal-fsync", false, "fsync every journal append (survives power loss, not just SIGKILL)")
	fs.IntVar(&o.MaxAttempts, "max-attempts", 3, "running attempts per job before quarantine")
	fs.DurationVar(&o.StallTimeout, "stall-timeout", 2*time.Minute, "watchdog kills a job emitting no progress events for this long (negative: off)")
	fs.Int64Var(&o.MemCeilingBytes, "mem-ceiling", 0, "watchdog kills the running job when the process heap in use exceeds this many bytes (0: off)")
	fs.StringVar(&cfg.logLevel, "log-level", "info", "log verbosity: debug, info, warn, or error")
	fs.StringVar(&cfg.logFormat, "log-format", "json", "log encoding: json or text")
	fs.StringVar(&cfg.faultSpec, "faults", os.Getenv("SEQVERD_FAULTS"),
		"deterministic fault-injection spec for chaos testing, e.g. \"seed=7,worker_panic=0.2\" (default $SEQVERD_FAULTS; empty: off)")
	return fs
}

func run() int {
	var cfg config
	fs := newFlagSet(&cfg)
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: seqverd [flags]")
		fs.PrintDefaults()
		return 3
	}

	logger, err := buildLogger(cfg.logLevel, cfg.logFormat)
	if err != nil {
		return fail(err)
	}
	slog.SetDefault(logger)

	if plan, err := faults.Parse(cfg.faultSpec); err != nil {
		return fail(err)
	} else if plan != nil {
		faults.Install(plan)
		logger.Warn("FAULT INJECTION ACTIVE — not a production configuration",
			slog.String("plan", plan.String()))
	}

	cfg.serve.Logger = logger
	s, err := serve.New(cfg.serve)
	if err != nil {
		return fail(err)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fail(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Info("listening",
		slog.String("addr", ln.Addr().String()),
		slog.String("dashboard", fmt.Sprintf("http://%s/dashboard", ln.Addr())))

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return fail(err)
	case sig := <-sigc:
		logger.Info("signal received, draining",
			slog.String("signal", sig.String()),
			slog.Duration("drain_timeout", cfg.drainTimeout))
	}
	go func() {
		<-sigc
		logger.Error("forced exit on second signal")
		os.Exit(1)
	}()

	s.Drain(cfg.drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", slog.String("error", err.Error()))
	}
	logger.Info("exit")
	return 0
}

// buildLogger assembles the daemon's logging stack: the chosen slog
// handler on stderr wrapped in obs.NewLogHandler, which stamps every
// record with the correlation ids (job_id, request_id) riding the
// context as obs baggage.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info", "":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "json", "":
		h = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want json or text)", format)
	}
	return slog.New(obs.NewLogHandler(h)), nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "seqverd:", err)
	return 3
}
