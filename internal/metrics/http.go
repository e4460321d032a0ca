package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"
)

// DebugMux returns the live-introspection HTTP handler the CLIs mount
// under -debug-addr:
//
//	/metrics      Prometheus text exposition of reg
//	/healthz      liveness JSON (status, pid, uptime, go runtime info)
//	/debug/vars   the process's expvar map
//	/debug/pprof  the full net/http/pprof suite (heap, profile, trace…)
//
// The mux is self-contained (routes are registered explicitly, not on
// http.DefaultServeMux) so a library embedder can mount it anywhere.
func DebugMux(reg *Registry) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ExpositionContentType)
		if err := reg.WriteProm(w); err != nil {
			// Headers are gone; all we can do is log.
			fmt.Fprintf(os.Stderr, "metrics: /metrics write: %v\n", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":         "ok",
			"pid":            os.Getpid(),
			"uptime_seconds": time.Since(start).Seconds(),
			"go_version":     runtime.Version(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"num_goroutine":  runtime.NumGoroutine(),
		})
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running -debug-addr HTTP server.
type DebugServer struct {
	Addr string // the bound address (resolves ":0")
	srv  *http.Server
	ln   net.Listener
}

// StartDebugServer binds addr and serves DebugMux(reg) on it in a
// background goroutine. It returns once the listener is bound, so a
// caller printing s.Addr advertises a live endpoint.
func StartDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: debug server: %w", err)
	}
	srv := &http.Server{Handler: DebugMux(reg)}
	go srv.Serve(ln)
	return &DebugServer{Addr: ln.Addr().String(), srv: srv, ln: ln}, nil
}

// Close stops the server immediately (in-flight scrapes are dropped —
// the process is exiting anyway).
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
