package cec

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqver/internal/aig"
	"seqver/internal/obs"
	"seqver/internal/sat"
)

// testMiterHook, when non-nil, runs at the start of every miter proof
// with the output's name. It exists only for tests (panic injection into
// the worker pool); production code never sets it.
var testMiterHook func(output string)

// Stage-1 defaults: rounds x wordsPerRound x 64 random patterns.
const (
	defaultSimRounds        = 8
	defaultSimWordsPerRound = 4
)

func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) simShape() (rounds, wordsPerRound int) {
	rounds = o.SimRounds
	if rounds == 0 {
		rounds = defaultSimRounds
	}
	if rounds < 0 {
		rounds = 0
	}
	wordsPerRound = o.SimWordsPerRound
	if wordsPerRound <= 0 {
		wordsPerRound = defaultSimWordsPerRound
	}
	return rounds, wordsPerRound
}

// checkSAT is the hybrid pipeline: random simulation, an eager fraig
// sweep, then one SAT miter per output discharged by a worker pool.
func checkSAT(ctx context.Context, a *aig.AIG, piNames []string, pos1, pos2 []aig.Lit,
	names []string, opt Options, res *Result) (*Result, error) {
	workers := opt.workerCount()
	st := res.Stats
	st.Workers = workers

	// Stage 1: random simulation looks for cheap counterexamples.
	sctx, ssp := obs.Start(ctx, "sim")
	sctx, srestore := obs.PhaseLabel(sctx, "sim")
	hit, keys := simStage(sctx, a, pos1, pos2, opt, st)
	srestore()
	ssp.Count("sim.patterns", st.SimPatterns)
	ssp.End()
	if hit != nil {
		res.Verdict = Inequivalent
		res.FailingOutput = names[hit.out]
		res.Counterexample = cexAssign(piNames, func(i int) bool {
			return hit.piWords[i][hit.word]&(1<<uint(hit.bit)) != 0
		})
		return res, nil
	}

	// Stage 2: SAT-sweeping merges internal equivalences so that the
	// output miters collapse structurally where the circuits are similar.
	// Stage 1's patterns key its candidate classes. Under a deadline the
	// sweep degrades to a structural copy, keeping stage 3 the only
	// consumer of whatever budget remains.
	st.FraigNodesBefore = a.NumAnds()
	fctx, fsp := obs.Start(ctx, "fraig")
	fctx, frestore := obs.PhaseLabel(fctx, "fraig")
	af, fst := aig.FraigExCtx(fctx, a, aig.FraigOptions{Seed: opt.Seed, MaxConflicts: 1000, Keys: keys})
	frestore()
	if fsp != nil {
		fsp.Count("fraig.nodes_before", int64(st.FraigNodesBefore))
		fsp.Count("fraig.nodes_after", int64(fst.NodesAfter))
		fsp.Count("fraig.merges", int64(fst.Merges))
		fsp.Count("fraig.cut_merges", int64(fst.CutMerges))
		fsp.Count("fraig.prove_calls", int64(fst.ProveCalls))
		fsp.Count("fraig.refuted", int64(fst.Refuted))
		fsp.Count("fraig.sat_conflicts", fst.Conflicts)
		fsp.Count("fraig.sat_decisions", fst.Decisions)
		fsp.Count("fraig.key_words", int64(fst.KeyWords))
	}
	fsp.End()
	st.FraigNodesAfter = fst.NodesAfter
	st.FraigMerges = fst.Merges
	st.FraigCutMerges = fst.CutMerges
	st.FraigProveCalls = fst.ProveCalls
	st.FraigRefuted = fst.Refuted
	st.FraigConflicts = fst.Conflicts
	st.FraigDecisions = fst.Decisions
	st.FraigKeyWords = fst.KeyWords
	// Recover per-output edges from the fraiged AIG's POs.
	a = af
	for i := 0; i < len(pos1); i++ {
		pos1[i] = a.PO(2 * i)
		pos2[i] = a.PO(2*i + 1)
	}

	// Stage 3: one miter per output, proved concurrently over the
	// fraiged AIG, so every internal equivalence the sweep proved is
	// already folded into the structure the probes encode.
	maxConf := opt.MaxConflicts
	if maxConf == 0 {
		maxConf = 200000
	}
	env := &proveEnv{
		a: a, piNames: piNames, names: names, pos1: pos1, pos2: pos2,
		maxConf:  maxConf,
		deadline: newBudgeter(ctx, len(pos1)),
	}
	proveMiters(ctx, env, workers, res, st)
	return res, nil
}

// simHit locates the first differing pattern found by stage 1:
// output index, pattern word and bit, and the PI words of its round.
type simHit struct {
	round, out, word, bit int
	piWords               [][]uint64
}

// less orders hits deterministically so the stage-1 result does not
// depend on worker scheduling.
func (h *simHit) less(o *simHit) bool {
	if h.round != o.round {
		return h.round < o.round
	}
	if h.out != o.out {
		return h.out < o.out
	}
	if h.word != o.word {
		return h.word < o.word
	}
	return h.bit < o.bit
}

// simStage runs the stage-1 random simulation rounds as parallel
// batches (each round simulates wordsPerRound*64 patterns in one k-word
// sweep) and returns the first difference in deterministic order, or
// nil if no round distinguishes the circuits. Rounds are taken in
// order, and none past the lowest round that found a difference: every
// round below it has run, so the hit is the same for every worker
// count. Simulation is only a filter, so an expiring context simply
// skips the remaining rounds. SimPatterns counts the patterns of the
// rounds that ran.
//
// Unless a round found a difference, each round's node words are folded
// into fraig's class keys before the next round overwrites them. Each
// worker folds into keys of its own and the pool's keys are merged
// once it drains; the fold is order-free, so the keys are the same for
// every worker count. keys is nil when no round ran or a round was
// skipped, and fraig then keys its classes itself.
func simStage(ctx context.Context, a *aig.AIG, pos1, pos2 []aig.Lit, opt Options, st *Stats) (*simHit, *aig.SimKeys) {
	rounds, wpr := opt.simShape()
	st.SimRounds, st.SimWordsPerRound = rounds, wpr
	if rounds == 0 {
		return nil, nil
	}
	sp := obs.CurrentSpan(ctx)
	workers := opt.workerCount()
	if workers > rounds {
		workers = rounds
	}

	var mu sync.Mutex
	var best *simHit
	// end is rounds, or the lowest round that found a difference (fraig
	// will not run then): no round from end on is taken.
	var end atomic.Int32
	end.Store(int32(rounds))
	var ran atomic.Int64 // rounds taken
	next := int32(-1)
	folded := make([]*aig.SimKeys, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w []uint64 // node words, reused across this worker's rounds
			for {
				r := int(atomic.AddInt32(&next, 1))
				if r >= int(end.Load()) || sat.Expired(ctx) {
					return
				}
				ran.Add(1)
				// Seed per round, not per worker: the simulated
				// patterns are identical for every worker count.
				rng := rand.New(rand.NewSource(opt.Seed*1_000_003 + int64(r)*7919 + 5))
				piWords := make([][]uint64, a.NumPIs())
				flat := make([]uint64, a.NumPIs()*wpr)
				for i := range piWords {
					ws := flat[i*wpr : (i+1)*wpr : (i+1)*wpr]
					for j := range ws {
						ws[j] = rng.Uint64()
					}
					piWords[i] = ws
				}
				w = a.SimWordsK(w, piWords, wpr)
				for i := range pos1 {
					n1, n2 := int(pos1[i].Node()), int(pos2[i].Node())
					w1, w2 := w[n1*wpr:(n1+1)*wpr], w[n2*wpr:(n2+1)*wpr]
					x1, x2 := flipMask(pos1[i]), flipMask(pos2[i])
					for j := 0; j < wpr; j++ {
						diff := (w1[j] ^ x1) ^ (w2[j] ^ x2)
						if diff == 0 {
							continue
						}
						hit := &simHit{round: r, out: i, word: j,
							bit: bits.TrailingZeros64(diff), piWords: piWords}
						mu.Lock()
						st.SimCexHits++
						if best == nil || hit.less(best) {
							best = hit
							end.Store(int32(best.round))
						}
						mu.Unlock()
						break
					}
				}
				if end.Load() == int32(rounds) {
					if folded[wk] == nil {
						folded[wk] = aig.NewSimKeys(a.NumNodes())
					}
					folded[wk].Fold(w, wpr, r*wpr)
				}
				if sp != nil {
					sp.Count("sim.rounds", 1)
				}
			}
		}()
	}
	wg.Wait()
	st.SimPatterns = ran.Load() * int64(wpr) * 64
	if best != nil {
		return best, nil
	}
	var keys *aig.SimKeys
	for _, f := range folded {
		switch {
		case f == nil:
		case keys == nil:
			keys = f
		default:
			keys.Merge(f)
		}
	}
	if keys == nil || keys.Words() != rounds*wpr {
		return nil, nil
	}
	return nil, keys
}

// flipMask returns the all-ones word for complemented edges.
func flipMask(l aig.Lit) uint64 {
	if l.Compl() {
		return ^uint64(0)
	}
	return 0
}

// miterWin is the first counterexample found by the worker pool.
type miterWin struct {
	out int
	cex map[string]bool
}

// proveEnv bundles the immutable inputs of the miter-proving stage.
type proveEnv struct {
	a              *aig.AIG
	piNames, names []string
	pos1, pos2     []aig.Lit
	maxConf        int64
	deadline       *budgeter // nil when neither Budget nor a ctx deadline is set

	// Reuse-telemetry accumulators, updated atomically by the workers
	// and folded into Stats once the pool drains.
	clausesReused  int64
	varsEncoded    int64
	dbReductions   int64
	clausesDeleted int64
}

// workerState is what each pool worker owns privately: a warm SAT
// solver and its CNF map over the shared read-only AIG, kept across
// every miter the worker proves.
type workerState struct {
	solver *sat.Solver
	cnf    *aig.CNFMap
}

// proveMiters discharges one miter per output on a pool of workers.
// Each worker owns a SAT solver and CNF map over the shared read-only
// AIG; the first counterexample wins and cancels the remaining work via
// an atomic stop flag, and an expired deadline drains the remaining
// queue as timeouts. Per-output and per-worker accounting lands in st.
func proveMiters(ctx context.Context, e *proveEnv, workers int, res *Result, st *Stats) {
	ctx, msp := obs.Start(ctx, "miters")
	defer msp.End()
	ctx, mrestore := obs.PhaseLabel(ctx, "miters")
	defer mrestore() // pool goroutines inherit job_id+phase at spawn
	n := len(e.pos1)
	perOut := make([]OutputStats, n)
	var pending []int
	for i := range perOut {
		perOut[i] = OutputStats{Name: e.names[i], Worker: -1}
		if e.pos1[i] == e.pos2[i] {
			perOut[i].Status = "structural"
			st.StructuralEqual++
		} else {
			perOut[i].Status = "skipped"
			pending = append(pending, i)
		}
	}
	if e.deadline != nil {
		// Structural matches consume no budget; divide over real work.
		e.deadline.setPending(len(pending))
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers < 1 {
		workers = 1
	}

	var stop atomic.Bool
	var undecided atomic.Bool
	var mu sync.Mutex
	var win *miterWin
	busy := make([]int64, workers)
	jobs := make(chan int)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &workerState{
				solver: sat.New(0),
				cnf:    &aig.CNFMap{},
			}
			for i := range jobs {
				if stop.Load() {
					continue // drain: leave the miter marked skipped
				}
				o := &perOut[i]
				if sat.Expired(ctx) {
					// Budget exhausted: everything still queued is
					// structurally unresolved, never silently dropped.
					o.Status = "timeout"
					undecided.Store(true)
					e.deadline.finish()
					continue
				}
				t0 := time.Now()
				o.Worker = w
				ictx, isp := obs.Start1(ctx, "miter", obs.S("output", e.names[i]))
				status, cex := e.proveOne(ictx, ws, i, o, st, &mu)
				if isp != nil {
					isp.Event("resolved", obs.S("status", status),
						obs.I("conflicts", o.Conflicts), obs.I("decisions", o.Decisions))
					isp.End()
				}
				o.Status = status
				o.TimeNS = time.Since(t0).Nanoseconds()
				busy[w] += o.TimeNS
				e.deadline.finish()
				msp.Count("miters.resolved", 1)
				switch status {
				case "cex":
					mu.Lock()
					if win == nil {
						win = &miterWin{out: i, cex: cex}
					}
					mu.Unlock()
					stop.Store(true)
				case "equal":
				default: // undecided | timeout | panic
					undecided.Store(true)
				}
			}
		}(w)
	}
	for _, i := range pending {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	wall := time.Since(start).Nanoseconds()
	st.PerOutput = perOut
	st.WorkerBusyNS = busy
	if wall > 0 && workers > 0 {
		var sum int64
		for _, b := range busy {
			sum += b
		}
		st.Utilization = float64(sum) / (float64(wall) * float64(workers))
	}
	for i := range perOut {
		st.SATCalls += perOut[i].SATCalls
		st.Conflicts += perOut[i].Conflicts
		st.Decisions += perOut[i].Decisions
	}
	st.ClausesReused = e.clausesReused
	st.VarsEncoded = e.varsEncoded
	st.DBReductions = e.dbReductions
	st.ClausesDeleted = e.clausesDeleted
	res.SATCalls = st.SATCalls
	// The exact stage totals, zeros included, go to the trace once the
	// pool has drained; metrics.Sink folds them into the
	// seqver_sat_*_total counters.
	msp.Count("sat.calls", int64(st.SATCalls))
	msp.Count("sat.conflicts", st.Conflicts)
	msp.Count("sat.decisions", st.Decisions)
	msp.Count("sat.clauses_reused", st.ClausesReused)
	msp.Count("sat.vars_encoded", st.VarsEncoded)

	switch {
	case win != nil:
		res.Verdict = Inequivalent
		res.FailingOutput = e.names[win.out]
		res.Counterexample = win.cex
	case undecided.Load():
		res.Verdict = Undecided
		for i := range perOut {
			switch perOut[i].Status {
			case "undecided", "timeout", "panic":
				res.UndecidedOutputs = append(res.UndecidedOutputs, perOut[i].Name)
			}
		}
		sort.Strings(res.UndecidedOutputs)
	default:
		res.Verdict = Equivalent
	}
}

// proveOne discharges miter i under its budget slice, converting a
// panicking proof into an undecided "panic" status (stack captured in
// st.Panics) so one bad cone can never take down a batch run.
func (e *proveEnv) proveOne(ctx context.Context, ws *workerState, i int,
	o *OutputStats, st *Stats, mu *sync.Mutex) (status string, cex map[string]bool) {
	defer func() {
		if r := recover(); r != nil {
			status, cex = "panic", nil
			recordPanic(st, mu, e.names[i], r)
		}
	}()
	if testMiterHook != nil {
		testMiterHook(e.names[i])
	}
	mctx := ctx
	if e.deadline != nil {
		d, pending := e.deadline.slice()
		// The budgeter's grant — and whatever the miter later donates
		// back by finishing early — lands on the miter's span, so a
		// trace shows exactly how the wall clock was divided.
		if sp := obs.CurrentSpan(ctx); sp != nil {
			sp.Event("budget.slice",
				obs.I("slice_ns", int64(time.Until(d))), obs.I("pending", int64(pending)))
			defer func() {
				if unused := time.Until(d); unused > 0 && status != "timeout" {
					sp.Event("budget.donate", obs.I("unused_ns", int64(unused)))
				}
			}()
		}
		var cancel context.CancelFunc
		mctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	return e.proveSAT(mctx, ws, i, o)
}

// proveSAT discharges one output miter on the worker's warm solver:
// only the cone delta is encoded into the shared CNF, the two one-sided
// checks run as assumption probes over the retained clause database
// (clauses learned on output i prune output i+1), and a proven equality
// is fed back as permanent clauses for later miters. Directed
// assumption pairs beat a retractable miter clause under an activation
// literal here — assumptions propagate both cone values immediately,
// while an activated disjunction forces the solver to branch on the
// case split (measured ~20% more conflicts on the s3384 harness).
// Statuses: equal | cex | undecided (conflict budget) | timeout
// (context fired).
func (e *proveEnv) proveSAT(ctx context.Context, ws *workerState, i int,
	o *OutputStats) (string, map[string]bool) {
	s := ws.solver
	if sp := obs.CurrentSpan(ctx); sp != nil {
		thr := obs.NewThrottle(50 * time.Millisecond)
		s.Progress = func(conflicts, decisions int64) {
			if thr.Ok() {
				sp.Gauge("sat.conflicts", conflicts)
				sp.Gauge("sat.decisions", decisions)
			}
		}
		defer func() { s.Progress = nil }()
	}
	// Per-probe accounting is a delta of the solver's lifetime counters:
	// a warm solver accumulates across outputs, and absolute counts
	// would re-bill earlier miters' work to every later one.
	v0 := s.NumVars()
	c0, d0, calls0 := s.Stats.Conflicts, s.Stats.Decisions, s.Stats.SolveCalls
	r0, del0 := s.Stats.Reductions, s.Stats.Deleted
	defer func() {
		o.Conflicts = s.Stats.Conflicts - c0
		o.Decisions = s.Stats.Decisions - d0
		o.SATCalls = int(s.Stats.SolveCalls - calls0)
		atomic.AddInt64(&e.dbReductions, s.Stats.Reductions-r0)
		atomic.AddInt64(&e.clausesDeleted, s.Stats.Deleted-del0)
	}()

	l1 := e.a.Encode(s, ws.cnf, e.pos1[i])
	l2 := e.a.Encode(s, ws.cnf, e.pos2[i])
	atomic.AddInt64(&e.varsEncoded, int64(s.NumVars()-v0))
	s.MaxConflicts = e.maxConf

	o.LearnedReused = s.NumLearned()
	atomic.AddInt64(&e.clausesReused, int64(o.LearnedReused))

	for pass := 0; pass < 2; pass++ {
		a1, a2 := l1, l2.Not()
		if pass == 1 {
			a1, a2 = l1.Not(), l2
		}
		verdict, model := s.SolveModelCtx(ctx, a1, a2)
		switch verdict {
		case sat.Sat:
			return "cex", cexFromModel(e.a, e.piNames, ws.cnf, model)
		case sat.Unknown:
			return "undecided", nil
		case sat.Canceled:
			return "timeout", nil
		}
	}
	// Proven equal: later cones sharing either side now propagate
	// through the equality instead of re-deriving it.
	s.AddClause(l1.Not(), l2)
	s.AddClause(l1, l2.Not())
	return "equal", nil
}

func recordPanic(st *Stats, mu *sync.Mutex, output string, r any) {
	mu.Lock()
	st.Panics = append(st.Panics, PanicRecord{
		Output: output,
		Value:  fmt.Sprint(r),
		Stack:  string(debug.Stack()),
	})
	mu.Unlock()
}

// cexAssign builds a named counterexample from any per-PI value source —
// the one helper shared by the simulation, SAT-model, and BDD paths.
func cexAssign(piNames []string, val func(i int) bool) map[string]bool {
	out := make(map[string]bool, len(piNames))
	for i, n := range piNames {
		out[n] = val(i)
	}
	return out
}

func cexFromModel(a *aig.AIG, piNames []string, cnf *aig.CNFMap, model []bool) map[string]bool {
	return cexAssign(piNames, func(i int) bool {
		node := a.PI(i).Node()
		if v, ok := cnf.Var(node); ok && v < len(model) {
			return model[v]
		}
		return false
	})
}
