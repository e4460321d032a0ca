package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"seqver/internal/metrics"
)

// apiError is the uniform error body: {"error":{"code","message"}}.
// Codes are stable strings clients can branch on; messages are for
// humans. docs/API.md documents the vocabulary.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{"error": {Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler mounts the full API: the job endpoints under /api/v1, the
// readiness and dashboard pages, plus the shared debug surface
// (/metrics, /healthz, /debug/*) from metrics.DebugMux, so one listener
// serves both. The whole mux sits behind the access-log middleware,
// which mints the per-request correlation id.
func (s *Server) Handler() http.Handler {
	mux := metrics.DebugMux(s.reg)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /dashboard", s.handleDashboard)
	mux.HandleFunc("GET /api/v1/stats/timeseries", s.handleTimeseries)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/corpus", s.handleCorpus)
	mux.HandleFunc("GET /api/v1/cache", s.handleCache)
	return s.accessLog(mux)
}

// handleReadyz is GET /readyz: the load-balancer readiness probe.
// Unlike /healthz (process liveness), readiness goes false the moment a
// drain begins — {"state":"draining"} with 503 — so rotation happens
// before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	state, code := "ready", http.StatusOK
	switch {
	case s.Draining():
		state, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		state, code = "starting", http.StatusServiceUnavailable
	}
	if code != http.StatusOK {
		w.Header().Set("Retry-After", "10")
	}
	writeJSON(w, code, map[string]any{"state": state})
}

// handleTimeseries is GET /api/v1/stats/timeseries?window=5m: the
// dashboard's history feed. window accepts a Go duration or a bare
// second count; absent or non-positive it returns the full ring.
func (s *Server) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	var window time.Duration
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			secs, err2 := strconv.Atoi(v)
			if err2 != nil {
				writeError(w, http.StatusBadRequest, "invalid_request",
					fmt.Sprintf("bad window %q: want a duration like 5m or a second count", v))
				return
			}
			d = time.Duration(secs) * time.Second
		}
		window = d
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"interval_seconds": s.tsr.Interval().Seconds(),
		"capacity":         s.tsr.Capacity(),
		"samples":          s.tsr.Window(window),
		"draining":         s.Draining(),
	})
}

// handleReport is GET /api/v1/jobs/{id}/report: the job's trace folded
// into the phase/miter waterfall the dashboard renders.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	stampRequest(r.Context(), slog.String("job_id", j.ID))
	writeJSON(w, http.StatusOK, s.Report(j))
}

// handleSubmit is POST /api/v1/jobs: accept a JobRequest, answer 202
// with the job's initial view. During drain it answers 503 with
// Retry-After, the signal a load balancer needs to move on.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes)
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large",
				fmt.Sprintf("request body exceeds %d bytes", s.opt.MaxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid_request", "bad JSON: "+err.Error())
		return
	}
	if _, err := io.Copy(io.Discard, body); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	j, err := s.Submit(&req)
	switch {
	case err == nil:
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		writeError(w, http.StatusServiceUnavailable, "draining",
			"daemon is draining; retry against a live instance")
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "queue_full",
			fmt.Sprintf("job queue is full (%d queued)", s.opt.QueueDepth))
		return
	default:
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	stampRequest(r.Context(), slog.String("job_id", j.ID))
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "job accepted",
		slog.String("job_id", j.ID),
		slog.String("golden", sideName(req.Golden)),
		slog.String("revised", sideName(req.Revised)),
		slog.String("engine", req.Engine),
		slog.Int64("budget_ms", req.BudgetMS))
	w.Header().Set("Location", "/api/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.View())
}

// sideName names one side for the log line without ever echoing BLIF.
func sideName(s SideSpec) string {
	if s.Corpus != "" {
		return s.Corpus
	}
	return "inline"
}

// handleList is GET /api/v1/jobs: remembered jobs, newest first.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.JobViews()})
}

// handleJob is GET /api/v1/jobs/{id}: the poll endpoint. A job the
// drain rejected carries Retry-After so pollers know to resubmit
// elsewhere.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	stampRequest(r.Context(), slog.String("job_id", j.ID))
	v := j.View()
	if v.Status == StatusRejected {
		w.Header().Set("Retry-After", "10")
	}
	writeJSON(w, http.StatusOK, v)
}

// handleTrace is GET /api/v1/jobs/{id}/trace: the job's buffered JSONL
// trace (the obs wire schema, tracelint-clean). X-Trace-Truncated: true
// marks a trace that outgrew the buffer cap.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	stampRequest(r.Context(), slog.String("job_id", j.ID))
	data, truncated := j.fan.trace()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if truncated {
		w.Header().Set("X-Trace-Truncated", "true")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleEvents is GET /api/v1/jobs/{id}/events: an SSE stream of the
// job's trace. Each trace line arrives as an "event: trace" message
// (data = one obs JSONL object); a terminal "event: done" message
// carries the final JobView, then the stream closes. Subscribing to a
// finished job replays the buffered trace and closes immediately — the
// endpoint never blocks on a job that will not produce more.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "not_found", "no such job")
		return
	}
	stampRequest(r.Context(), slog.String("job_id", j.ID))
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "internal",
			"response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	writeSSE := func(event string, data []byte) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	}
	snapshot, live := j.fan.subscribe()
	defer j.fan.unsubscribe(live)
	for _, line := range splitLines(snapshot) {
		writeSSE("trace", line)
	}
	flusher.Flush()
	for {
		select {
		case line, ok := <-live:
			if !ok {
				// Terminal: the job finished (or already had).
				view, _ := json.Marshal(j.View())
				writeSSE("done", view)
				flusher.Flush()
				return
			}
			writeSSE("trace", line)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// splitLines splits buffered JSONL into its lines without the trailing
// newline, skipping empties.
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// handleCorpus is GET /api/v1/corpus: the names submittable as
// {"corpus": name}; each also has a "<name>:synth" variant.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"names":          s.CorpusNames(),
		"variant_suffix": ":synth",
	})
}

// handleCache is GET /api/v1/cache: result-cache occupancy and hit
// counters (the same numbers /metrics exposes as seqver_cache_*).
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.CacheStats())
}
