package serve

import (
	"bytes"
	"sort"

	"seqver/internal/obs"
)

// The job report is the dashboard's drill-down view: the job's JSONL
// trace folded into a phase/miter waterfall. Everything per phase and
// per miter comes from the fanSink's buffered trace alone — a miter's
// exact conflicts and decisions ride its "resolved" instant — so a
// running job reports its partial waterfall (an open miter has no
// counts until it resolves) and a finished one reports the full story.
// Only the SAT header, the job's totals, is read from the job view.

// slowestMiters bounds the per-miter detail in a report: the k slowest
// miters are listed individually, the rest fold into the summary.
const slowestMiters = 8

// MiterReport is one output's miter proof in the waterfall. StartNS is
// relative to the trace epoch (the attempt's first event), so the
// dashboard can lay miters out on a shared time axis.
type MiterReport struct {
	Output    string `json:"output"`
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
	Status    string `json:"status,omitempty"`
	Conflicts int64  `json:"conflicts,omitempty"`
	Decisions int64  `json:"decisions,omitempty"`
	SliceNS   int64  `json:"slice_ns,omitempty"`
	DonatedNS int64  `json:"donated_ns,omitempty"`
}

// MiterSummary covers all miters; Slowest lists only the k slowest.
type MiterSummary struct {
	Total    int            `json:"total"`
	ByStatus map[string]int `json:"by_status,omitempty"`
	Slowest  []MiterReport  `json:"slowest,omitempty"`
}

// BudgetReport totals the wall-clock budget scheduler's trace events:
// slices handed to miters and the unused remainders donated back.
type BudgetReport struct {
	SlicesNS  int64 `json:"slices_ns"`
	Donations int64 `json:"donations"`
	DonatedNS int64 `json:"donated_ns"`
}

// SATReport totals solver effort across the job.
type SATReport struct {
	Calls     int   `json:"calls"`
	Conflicts int64 `json:"conflicts"`
	Decisions int64 `json:"decisions"`
}

// JobReport is GET /api/v1/jobs/{id}/report.
type JobReport struct {
	ID             string        `json:"id"`
	Status         string        `json:"status"`
	Attempts       int           `json:"attempts,omitempty"`
	Verdict        string        `json:"verdict,omitempty"`
	Engine         string        `json:"engine,omitempty"`
	Error          string        `json:"error,omitempty"`
	Cached         bool          `json:"cached,omitempty"`
	CacheOutcome   string        `json:"cache_outcome,omitempty"`
	Recovered      bool          `json:"recovered,omitempty"`
	TraceTruncated bool          `json:"trace_truncated,omitempty"`
	TotalNS        int64         `json:"total_ns"`
	Phases         []obs.Phase   `json:"phases"`
	Miters         *MiterSummary `json:"miters,omitempty"`
	Budget         *BudgetReport `json:"budget,omitempty"`
	SAT            *SATReport    `json:"sat,omitempty"`
}

// Report folds the job's buffered trace (plus its result, when
// terminal) into a JobReport.
func (s *Server) Report(j *Job) *JobReport {
	data, truncated := j.fan.trace()
	// The fan buffer only ever drops whole appended chunks past its cap,
	// so every retained line is complete; a decode error here means the
	// buffer was corrupted and an empty waterfall is the honest answer.
	events, err := obs.DecodeJSONL(bytes.NewReader(data))
	if err != nil {
		events = nil
	}
	v := j.View()
	rep := &JobReport{
		ID: j.ID, Status: v.Status, Attempts: v.Attempts,
		Error: v.Error, Recovered: v.Recovered, TraceTruncated: truncated,
	}
	if r := v.Result; r != nil {
		rep.Verdict = r.Verdict
		rep.Cached = r.Cached
		if st := r.Stats; st != nil {
			rep.Engine = st.Engine
			rep.SAT = &SATReport{Calls: st.SATCalls, Conflicts: st.Conflicts, Decisions: st.Decisions}
		} else if r.SATCalls > 0 {
			rep.SAT = &SATReport{Calls: r.SATCalls}
		}
	}
	foldTrace(rep, events)
	return rep
}

// foldTrace walks the decoded events once, feeding spans to an
// obs.PhaseFold for the phases, miter spans into the waterfall, and
// budget/cache instants into their summaries. Every instant a miter
// row reads (resolved, budget.slice, budget.donate) is emitted on the
// miter span itself, so attaching one is a lookup by span id.
func foldTrace(rep *JobReport, events []obs.Event) {
	bySpan := map[uint64]*MiterReport{}
	phases := obs.NewPhaseFold()
	var miters []*MiterReport
	budget := &BudgetReport{}
	var maxTS, jobDur int64

	for _, ev := range events {
		phases.Emit(ev)
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
		m := bySpan[ev.Span]
		switch ev.Type {
		case "begin":
			if ev.Name == "miter" {
				m = &MiterReport{
					Output:  obs.AttrStr(ev.Attrs, "output"),
					StartNS: ev.TS,
					DurNS:   -1, // still open until the end event lands
				}
				bySpan[ev.Span] = m
				miters = append(miters, m)
			}
		case "end":
			if m != nil {
				m.DurNS = ev.Dur
			}
			if ev.Name == "job" && ev.Dur > jobDur {
				jobDur = ev.Dur
			}
		case "instant":
			switch ev.Name {
			case "resolved":
				if m != nil {
					m.Status = obs.AttrStr(ev.Attrs, "status")
					m.Conflicts = obs.AttrInt(ev.Attrs, "conflicts")
					m.Decisions = obs.AttrInt(ev.Attrs, "decisions")
				}
			case "budget.slice":
				ns := obs.AttrInt(ev.Attrs, "slice_ns")
				budget.SlicesNS += ns
				if m != nil {
					m.SliceNS = ns
				}
			case "budget.donate":
				ns := obs.AttrInt(ev.Attrs, "unused_ns")
				budget.Donations++
				budget.DonatedNS += ns
				if m != nil {
					m.DonatedNS = ns
				}
			case "cache":
				rep.CacheOutcome = obs.AttrStr(ev.Attrs, "outcome")
			}
		}
	}

	// Open miters (a running job) extend to the trace frontier.
	for _, m := range miters {
		if m.DurNS < 0 {
			m.DurNS = maxTS - m.StartNS
		}
	}
	rep.TotalNS = jobDur
	if rep.TotalNS == 0 {
		rep.TotalNS = maxTS
	}
	rep.Phases = phases.Phases()
	if budget.SlicesNS > 0 || budget.Donations > 0 {
		rep.Budget = budget
	}
	if len(miters) > 0 {
		rep.Miters = summarizeMiters(miters)
	}
}

func summarizeMiters(miters []*MiterReport) *MiterSummary {
	sum := &MiterSummary{Total: len(miters), ByStatus: map[string]int{}}
	for _, m := range miters {
		if m.Status != "" {
			sum.ByStatus[m.Status]++
		}
	}
	sorted := append([]*MiterReport(nil), miters...)
	sort.Slice(sorted, func(i, k int) bool {
		if sorted[i].DurNS != sorted[k].DurNS {
			return sorted[i].DurNS > sorted[k].DurNS
		}
		return sorted[i].Output < sorted[k].Output
	})
	if len(sorted) > slowestMiters {
		sorted = sorted[:slowestMiters]
	}
	for _, m := range sorted {
		sum.Slowest = append(sum.Slowest, *m)
	}
	return sum
}
