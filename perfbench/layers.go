package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"seqver"
	"seqver/internal/cbf"
	"seqver/internal/cec"
	"seqver/internal/core"
	"seqver/internal/edbf"
	"seqver/internal/netlist"
	"seqver/internal/obs"
)

// Layer-set sizes of the traced run: enough pairs of each shape for a
// median, few enough that a cycle over all layers takes seconds.
const (
	layerS3384Pairs = 6
	layerEx5Pairs   = 3
)

// layerMetric is one per-layer metric: where it is measured and which
// end-to-end metric, on which workload, it should move.
type layerMetric struct {
	name, unit, on, moves string
}

const (
	moveParse   = "verdict_p50_s on daemon_repeat (cache hits) and buggy_s3384 (dense faults)"
	moveCBF     = "verdict_p50_s on retimed_s3384 and buggy_s3384"
	moveEDBF    = "verdict_p50_s on industrial_ex5"
	moveCEC     = "verdict_p50_s, verdict_p90_s on retimed_s3384, industrial_ex5, buggy_s3384 (rare faults)"
	moveSAT     = "verdict_p50_s, verdict_p90_s on industrial_ex5, buggy_s3384 (rare faults)"
	moveScaling = "pairs_per_s on retimed_s3384"
	moveAlloc   = "peak_heap_mb, pairs_per_s on industrial_ex5"
	moveServe   = "verdict_p90_s, pairs_per_s on daemon_repeat"
	moveSetup   = "setup_s on every workload"
)

var layerMetrics = []layerMetric{
	{"netlist.parse_s", "s", "s3384 pairs, both sides", moveParse},
	{"cec.hash_s", "s", "s3384 CBF unrollings", moveParse},
	{"cbf.unroll_s", "s", "s3384 pairs, both sides", moveCBF},
	{"cbf.unrolled_gates", "count", "s3384 pairs, both sides", moveCBF},
	{"cbf.depth", "count", "s3384 golden side", moveCBF},
	{"edbf.unroll_s", "s", "ex5 pairs, both sides", moveEDBF},
	{"edbf.unrolled_gates", "count", "ex5 pairs, both sides", moveEDBF},
	{"edbf.events", "count", "ex5 pairs, shared context", moveEDBF},
	{"core.prepare_s", "s", "ex5 golden side", moveEDBF},
	{"core.latches_exposed", "count", "ex5 golden side", moveEDBF},
	{"cec.check_s", "s", "s3384 CBF unrollings, untraced", moveCEC},
	{"cec.aig_ands", "count", "s3384 joint AIG", moveCEC},
	{"cec.sim_s", "s", "s3384 stage-1 wall", moveCEC},
	{"cec.sim_cex_hits", "count", "rare-fault pairs, total", moveCEC},
	{"cec.fraig_s", "s", "s3384 fraig wall", moveCEC},
	{"cec.fraig_merges", "count", "s3384, Workers=1", moveCEC},
	{"cec.fraig_ands_after", "count", "s3384, Workers=1", moveCEC},
	{"cec.miters_s", "s", "s3384 miter-stage wall", moveCEC},
	{"cec.structural_equal", "count", "s3384, Workers=1", moveCEC},
	{"sat.calls", "count", "rare faults + ex5, Workers=1, total", moveSAT},
	{"sat.conflicts", "count", "rare faults + ex5, Workers=1, total", moveSAT},
	{"sat.decisions", "count", "rare faults + ex5, Workers=1, total", moveSAT},
	{"cec.utilization", "ratio", "rare faults + ex5 where SAT ran", "pairs_per_s on buggy_s3384, industrial_ex5"},
	{"cec.speedup_2w", "ratio", "s3384, Workers=1 over Workers=2", moveScaling},
	{"cec.check_alloc_mb", "MB", "ex5 EDBF unrollings", moveAlloc},
	{"cec.check_allocs", "count", "ex5 EDBF unrollings", moveAlloc},
	{"core.replay_s", "s", "buggy pairs", "verdict_p50_s on buggy_s3384"},
	{"serve.queue_wait_s", "s", "daemon session on s3384 pairs", moveServe},
	{"serve.job_s", "s", "daemon session on s3384 pairs", moveServe},
	{"serve.cache_hit_ratio", "ratio", "daemon session on s3384 pairs", moveServe},
	{"synth.optimize_s", "s", "s3384 set-up", moveSetup},
	{"retime.min_period_s", "s", "s3384 set-up", moveSetup},
	{"trace.overhead", "ratio", "this workload's pairs", "nothing; it is traced over untraced verdict_p50_s"},
}

// deterministicCounters are the work counters a count-based claim may
// rest on, if they repeat exactly across the Workers=1 cycles.
var deterministicCounters = []string{
	"cbf.unrolled_gates", "edbf.unrolled_gates", "core.latches_exposed",
	"edbf.events", "cec.fraig_merges", "sat.calls", "sat.conflicts",
}

// memorySink keeps a traced call's events in memory, as a traced run
// should, and is read after the call returns.
type memorySink struct{ events []obs.Event }

func (m *memorySink) Emit(ev obs.Event) { m.events = append(m.events, ev) }
func (m *memorySink) Close() error      { return nil }

// wall is the duration of the span named name. Only the coarse stage
// spans are read here; each occurs once per check and the stages run one
// after another, so each is a wall. Per-miter spans overlap across
// workers and are never folded into a stage.
func (m *memorySink) wall(name string) float64 {
	var d int64
	for _, ev := range m.events {
		if ev.Type == obs.EvEnd && ev.Name == name {
			d += ev.Dur
		}
	}
	return time.Duration(d).Seconds()
}

func (m *memorySink) gauge(name string) float64 {
	for _, ev := range m.events {
		if ev.Type == obs.EvGauge && ev.Name == name {
			return float64(ev.Value)
		}
	}
	return 0
}

// traced runs f under a fresh tracer whose only sink is in memory.
func traced(ctx context.Context, f func(context.Context) error) (*memorySink, error) {
	sink := &memorySink{}
	tr := seqver.NewTracer(sink)
	err := f(seqver.WithTracer(ctx, tr))
	if cerr := tr.Close(); err == nil {
		err = cerr
	}
	return sink, err
}

// samples gathers the traced run's values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) since(name string, t0 time.Time) { s.add(name, time.Since(t0).Seconds()) }

// layerRun is the traced run: it builds the first few pairs of every
// shape and, in cycles until the budget is spent (at least two, so
// counters can be compared), times each layer's public call from here,
// reads stage walls from the program's existing spans, and takes
// counters from the cec.Stats each check returns. trace.overhead is
// measured on the requested workload's own pairs and path.
func layerRun(ctx context.Context, w *workload, seed int64, budget time.Duration) (*result, *env, error) {
	var s3384, ex5, buggy []pair
	s := samples{}
	for i := 0; i < layerS3384Pairs; i++ {
		p, err := retimedPair(i)
		if err != nil {
			return nil, nil, err
		}
		s.add("synth.optimize_s", p.synthS)
		s.add("retime.min_period_s", p.retimeS)
		s3384 = append(s3384, p)
		b, err := withFault(p, i)
		if err != nil {
			return nil, nil, err
		}
		buggy = append(buggy, b)
	}
	for i := 0; i < layerEx5Pairs; i++ {
		p, err := industrialPair(i)
		if err != nil {
			return nil, nil, err
		}
		ex5 = append(ex5, p)
	}
	own := s3384
	switch w.name {
	case "industrial_ex5":
		own = ex5
	case "buggy_s3384":
		own = buggy
	}

	t := &tally{}
	js := &jobStats{}
	var cycles []samples // Workers=1 counters, one set per cycle
	var traceOn, traceOff []float64
	start := time.Now()
	for len(cycles) < 2 || time.Since(start) < budget {
		counts := samples{}
		if err := cbfLayers(ctx, s3384, s, counts, t); err != nil {
			return partial(t), nil, err
		}
		if err := edbfLayers(ctx, ex5, s, counts, t); err != nil {
			return partial(t), nil, err
		}
		if err := replayLayer(ctx, buggy, s, counts, t); err != nil {
			return partial(t), nil, err
		}
		if err := daemonRound(s3384, seed, js)(ctx, seededOrder(seed, len(s3384)), t); err != nil {
			return partial(t), nil, err
		}
		for _, p := range own {
			off, err := timedVerify(ctx, w, p, t)
			if err != nil {
				return partial(t), nil, err
			}
			var on float64
			if _, err := traced(ctx, func(ctx context.Context) error {
				on, err = timedVerify(ctx, w, p, t)
				return err
			}); err != nil {
				return partial(t), nil, err
			}
			traceOff, traceOn = append(traceOff, off), append(traceOn, on)
		}
		cycles = append(cycles, counts)
	}

	res := partial(t)
	res.Metrics = map[string]metric{}
	for _, c := range cycles {
		for name, vs := range c {
			s[name] = append(s[name], vs...)
		}
	}
	s.add("cec.speedup_2w", median(s["w1"])/median(s["w2"]))
	s.add("trace.overhead", median(traceOn)/median(traceOff))
	s.add("serve.cache_hit_ratio", float64(js.hits)/float64(js.jobs))
	s["serve.queue_wait_s"], s["serve.job_s"] = js.queueWait, js.jobS
	for _, name := range totals {
		s[name] = []float64{sum(cycles[0][name])}
	}
	for _, m := range layerMetrics {
		v := median(s[m.name])
		res.Metrics[m.name] = metric{v, m.unit}
		fmt.Printf("# %-22s %12.6g %-5s  measured on %-32s  moves %s\n", m.name, v, m.unit, m.on, m.moves)
	}
	e := &env{Engines: t.engineList(), Counters: countDeterminism(cycles)}
	return res, e, nil
}

// cbfLayers times the CBF path's public calls on the s3384 pairs: parse,
// unroll, miter hash, and the check at the default worker count (traced
// for its stage walls), then at Workers=1 and Workers=2 untraced for the
// scaling ratio and the counters.
func cbfLayers(ctx context.Context, pairs []pair, s, counts samples, t *tally) error {
	for _, p := range pairs {
		t0 := time.Now()
		c1, c2, err := parsePair(p)
		if err != nil {
			return err
		}
		s.since("netlist.parse_s", t0)
		t0 = time.Now()
		u1, err := cbf.UnrollCtx(ctx, c1)
		if err != nil {
			return fmt.Errorf("%s: unroll golden: %w", p.name, err)
		}
		u2, err := cbf.UnrollCtx(ctx, c2)
		if err != nil {
			return fmt.Errorf("%s: unroll revised: %w", p.name, err)
		}
		s.since("cbf.unroll_s", t0)
		depth, err := cbf.SequentialDepth(c1)
		if err != nil {
			return fmt.Errorf("%s: depth: %w", p.name, err)
		}
		counts.add("cbf.unrolled_gates", float64(u1.NumGates()+u2.NumGates()))
		counts.add("cbf.depth", float64(depth))
		t0 = time.Now()
		if _, err := cec.MiterHash(u1, u2); err != nil {
			return fmt.Errorf("%s: miter hash: %w", p.name, err)
		}
		s.since("cec.hash_s", t0)

		// cec.check_s is untraced, like verdict_p50_s; the traced call
		// only supplies the stage walls and the AIG size.
		if _, err := timedCheck(ctx, p, u1, u2, cec.Options{}, "cec.check_s", s, t); err != nil {
			return err
		}
		sink, err := traced(ctx, func(ctx context.Context) error {
			_, err := timedCheck(ctx, p, u1, u2, cec.Options{}, "traced.check_s", s, t)
			return err
		})
		if err != nil {
			return err
		}
		s.add("cec.sim_s", sink.wall("sim"))
		s.add("cec.fraig_s", sink.wall("fraig"))
		s.add("cec.miters_s", sink.wall("miters"))
		s.add("cec.aig_ands", sink.gauge("aig.ands"))

		r1, err := timedCheck(ctx, p, u1, u2, cec.Options{Workers: 1}, "w1", s, t)
		if err != nil {
			return err
		}
		if _, err := timedCheck(ctx, p, u1, u2, cec.Options{Workers: 2}, "w2", s, t); err != nil {
			return err
		}
		st := r1.Stats
		counts.add("cec.fraig_merges", float64(st.FraigMerges))
		counts.add("cec.fraig_ands_after", float64(st.FraigNodesAfter))
		counts.add("cec.structural_equal", float64(st.StructuralEqual))
	}
	return nil
}

// utilization records the miter stage's busy fraction at the default
// worker count, when that stage ran SAT; without a SAT call there is no
// miter work to share, and the ratio reads 0.
func utilization(s samples, st *cec.Stats) {
	if st.SATCalls > 0 {
		s.add("cec.utilization", st.Utilization)
	}
}

// totals are the per-layer counters reported as a total over one cycle's
// pairs rather than a median: most pairs read 0 on each of them.
var totals = []string{"cec.sim_cex_hits", "sat.calls", "sat.conflicts", "sat.decisions"}

// satCounters records the SAT work of a Workers=1 check. They are read
// only where SAT runs, on the rare faults and the ex5 pairs: on the
// equivalent s3384 pairs fraig discharges every output first, and they
// would always be 0.
func satCounters(counts samples, st *cec.Stats) {
	counts.add("sat.calls", float64(st.SATCalls))
	counts.add("sat.conflicts", float64(st.Conflicts))
	counts.add("sat.decisions", float64(st.Decisions))
}

// timedCheck runs cec.CheckCtx on an equivalent pair's unrollings and
// records its wall under name.
func timedCheck(ctx context.Context, p pair, u1, u2 *netlist.Circuit, opt cec.Options, name string, s samples, t *tally) (*cec.Result, error) {
	t0 := time.Now()
	res, err := cec.CheckCtx(ctx, u1, u2, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: check: %w", p.name, err)
	}
	lat := time.Since(t0)
	s.add(name, lat.Seconds())
	t.record(lat, res.Stats.Engine, res.Verdict == cec.Undecided)
	if res.Verdict == cec.Inequivalent {
		return nil, fmt.Errorf("%s: %w: check found a difference", p.name, errWrongVerdict)
	}
	return res, nil
}

// edbfLayers times the EDBF path's public calls on the ex5 pairs:
// preparation, exposure matching, both unrollings under one event
// context, and the check with its allocation.
func edbfLayers(ctx context.Context, pairs []pair, s, counts samples, t *tally) error {
	for _, p := range pairs {
		c1, c2, err := parsePair(p)
		if err != nil {
			return err
		}
		t0 := time.Now()
		prep, err := core.PrepareCtx(ctx, c1, core.PrepareOptions{})
		if err != nil {
			return fmt.Errorf("%s: prepare: %w", p.name, err)
		}
		s.since("core.prepare_s", t0)
		counts.add("core.latches_exposed", float64(len(prep.Exposed)))
		b2, err := core.MatchExposure(c2, prep.Exposed)
		if err != nil {
			return fmt.Errorf("%s: match exposure: %w", p.name, err)
		}
		t0 = time.Now()
		cx := edbf.NewCtx()
		u1, err := cx.UnrollCtx(ctx, prep.Circuit)
		if err != nil {
			return fmt.Errorf("%s: unroll golden: %w", p.name, err)
		}
		u2, err := cx.UnrollCtx(ctx, b2)
		if err != nil {
			return fmt.Errorf("%s: unroll revised: %w", p.name, err)
		}
		s.since("edbf.unroll_s", t0)
		counts.add("edbf.unrolled_gates", float64(u1.NumGates()+u2.NumGates()))
		counts.add("edbf.events", float64(cx.NumEvents()))
		b0, o0, _ := obs.MemCounters()
		res, err := timedCheck(ctx, p, u1, u2, cec.Options{}, "ex5.check_s", s, t)
		if err != nil {
			return err
		}
		b1, o1, _ := obs.MemCounters()
		s.add("cec.check_alloc_mb", float64(b1-b0)/(1<<20))
		s.add("cec.check_allocs", float64(o1-o0))
		utilization(s, res.Stats)
		r1, err := timedCheck(ctx, p, u1, u2, cec.Options{Workers: 1}, "ex5.w1", s, t)
		if err != nil {
			return err
		}
		satCounters(counts, r1.Stats)
	}
	return nil
}

// replayLayer verifies the buggy pairs and times the counterexample
// replay on its own. On the rare faults, where fraig and SAT find the
// counterexample, it also totals stage-1 hits, reads the miter stage's
// utilization at the default worker count, and repeats the verification
// at Workers=1 for the SAT counters.
func replayLayer(ctx context.Context, pairs []pair, s, counts samples, t *tally) error {
	for _, p := range pairs {
		c1, c2, err := parsePair(p)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rep, err := seqver.VerifyAcyclicCtx(ctx, c1, c2, seqver.Options{})
		if err != nil {
			return fmt.Errorf("%s: verify: %w", p.name, err)
		}
		res := rep.Result
		t.record(time.Since(t0), res.Stats.Engine, res.Verdict == seqver.Undecided)
		if res.Verdict == seqver.Undecided {
			continue
		}
		if res.Verdict != seqver.Inequivalent {
			return fmt.Errorf("%s: %w: got %v", p.name, errWrongVerdict, res.Verdict)
		}
		t0 = time.Now()
		if _, err := seqver.ReplayCounterexample(c1, c2, res.Counterexample); err != nil {
			return fmt.Errorf("%s: %w: counterexample does not replay: %v", p.name, errWrongVerdict, err)
		}
		s.since("core.replay_s", t0)
		if p.fault != faultRare {
			continue
		}
		counts.add("cec.sim_cex_hits", float64(res.Stats.SimCexHits))
		utilization(s, res.Stats)
		t0 = time.Now()
		rep1, err := seqver.VerifyAcyclicCtx(ctx, c1, c2, seqver.Options{CEC: cec.Options{Workers: 1}})
		if err != nil {
			return fmt.Errorf("%s: verify at Workers=1: %w", p.name, err)
		}
		r1 := rep1.Result
		t.record(time.Since(t0), r1.Stats.Engine, r1.Verdict == seqver.Undecided)
		switch r1.Verdict {
		case seqver.Equivalent:
			return fmt.Errorf("%s: %w: got %v at Workers=1", p.name, errWrongVerdict, r1.Verdict)
		case seqver.Inequivalent:
			if _, err := seqver.ReplayCounterexample(c1, c2, r1.Counterexample); err != nil {
				return fmt.Errorf("%s: %w: Workers=1 counterexample does not replay: %v",
					p.name, errWrongVerdict, err)
			}
		}
		satCounters(counts, r1.Stats)
	}
	return nil
}

// countDeterminism compares each work counter's per-pair values across
// cycles: "exact" when every cycle read the same, "unusable" otherwise.
func countDeterminism(cycles []samples) map[string]string {
	out := map[string]string{}
	for _, name := range deterministicCounters {
		out[name] = "exact"
		for _, c := range cycles[1:] {
			if !equal(c[name], cycles[0][name]) {
				out[name] = "unusable"
			}
		}
	}
	var bad []string
	for name, v := range out {
		if v != "exact" {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	fmt.Printf("# counters compared over %d cycles; unusable for count claims: [%s]\n",
		len(cycles), strings.Join(bad, " "))
	return out
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
