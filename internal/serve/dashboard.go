package serve

import (
	_ "embed"
	"html/template"
	"net/http"
)

// The cockpit is a single self-contained HTML page — embedded template,
// vanilla JS, zero external assets — driven entirely by the daemon's
// own JSON surface: /api/v1/stats/timeseries for the sparklines,
// /api/v1/jobs for the job table, /api/v1/jobs/{id}/report for
// the drill-down waterfall, and the SSE /events stream to follow a
// running job live. The server injects only static configuration; all
// live numbers are fetched by the page so it works unchanged behind a
// proxy.

//go:embed dashboard.html
var dashboardHTML string

var dashboardTmpl = template.Must(template.New("dashboard").Parse(dashboardHTML))

type dashboardData struct {
	Workers    int
	QueueDepth int
}

// handleDashboard is GET /dashboard.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	dashboardTmpl.Execute(w, dashboardData{
		Workers:    s.opt.Workers,
		QueueDepth: s.opt.QueueDepth,
	})
}
