// Package sat implements a CDCL (conflict-driven clause learning)
// Boolean satisfiability solver with two-watched-literal propagation,
// VSIDS-style decision heuristics, phase saving, first-UIP conflict
// analysis with recursive clause minimization, and Luby restarts.
//
// It is the complete decision engine behind the combinational equivalence
// checker (Section 7.4 of the paper reduces CBF/EDBF equivalence to
// combinational equivalence; tools of the Matsunaga / Kuehlmann-Krohm
// family pair structural filtering with exactly this kind of engine).
//
// # Contract and budget semantics
//
// A Solver is incremental: clauses persist across Solve calls, and each
// call decides satisfiability under its assumption literals. Two budgets
// bound a call, and both degrade to a definite "gave up" status rather
// than an error or a hang:
//
//   - MaxConflicts (a per-call conflict count; 0 or negative means
//     unlimited) returns Unknown when exhausted. The formula's status is
//     simply undetermined; the solver stays usable.
//   - A context passed to SolveCtx/SolveMaskCtx/SolveModelCtx is polled
//     at conflict and decision boundaries (every few hundred steps, so
//     cancellation latency is microseconds-to-milliseconds, never a
//     whole proof). Cancellation or deadline expiry returns Canceled;
//     a passed deadline counts before the context's Err flips (Expired).
//
// Unknown and Canceled are both sound "no answer" verdicts: callers such
// as internal/cec map them to an undecided miter, never to a wrong
// equal/inequal answer. Learned clauses survive an interrupted call, so
// re-running with a larger budget resumes from accumulated knowledge.
// A Solver is not safe for concurrent use; the CEC worker pool gives
// each worker its own instance.
package sat

import (
	"cmp"
	"context"
	"slices"
	"time"
)

// Lit is a literal: variable index shifted left once, LSB = negation.
// Variables are 0-based.
type Lit int32

// MkLit builds a literal from a variable index and sign (neg=true for ¬v).
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is a solver verdict.
type Status int

const (
	// Unknown means the solver gave up (conflict budget exhausted).
	Unknown Status = iota
	// Sat means a model was found.
	Sat
	// Unsat means the instance is unsatisfiable.
	Unsat
	// Canceled means the Solve call's context was canceled or its
	// deadline expired before a verdict. Like Unknown it is a sound
	// "no answer": the formula's status is simply undetermined.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	case Canceled:
		return "CANCELED"
	}
	return "UNKNOWN"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

type clause struct {
	lits    []Lit
	learned bool
	deleted bool
	act     float64
}

type watch struct {
	cref    int32 // index into clauses
	blocker Lit
}

// Arena chunk sizes. Original clauses are never freed one by one, so
// AddClause carves their literals and headers out of chunked backing
// arrays instead of allocating per clause; each new literal's watch
// list starts with watchInit slots carved out of a watch chunk.
const (
	litChunk    = 4096
	clauseChunk = 512
	watchChunk  = 4096
	watchInit   = 8
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	clauses []*clause
	watches [][]watch // indexed by literal

	assign  []lbool // indexed by var: value of the positive literal
	level   []int32 // decision level of assignment
	reason  []int   // antecedent clause index, -1 for decisions
	phase   []bool  // saved phase
	trail   []Lit
	trailLm []int32 // decision-level boundaries in trail
	qhead   int

	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap

	seen      []bool
	unsatisf  bool   // top-level conflict found during AddClause
	lastModel []bool // snapshot of the most recent Sat assignment
	core      []Lit  // failed-assumption core of the last Unsat call

	// Arenas for original clauses and initial watch lists (see
	// litChunk). A clause's literals are a full-slice-expression view
	// a[i:j:j] of litArena, so nothing can append through it into a
	// neighbour; a watch list that outgrows its watchInit slots moves
	// to an allocation of its own. Learned clauses are allocated one by
	// one so reduceDB can free them.
	litArena    []Lit
	clauseArena []clause
	watchArena  []watch

	// Scratch buffers reused across calls: AddClause's normalization,
	// analyze's learned clause and seen-list, redundant's DFS stack.
	addBuf, learnBuf, minStack []Lit
	toClear                    []int

	numLearned int // live learned clauses (attached, not deleted)
	numOrig    int // live original clauses
	maxLearned float64

	// Budget: conflicts allowed per Solve call; <= 0 means unlimited.
	MaxConflicts int64
	conflicts    int64
	decisions    int64

	// MaxLearned caps the live learned-clause database: when a Solve
	// call's learned count exceeds it, the lowest-activity half is
	// deleted (reason clauses and binaries are kept). 0 selects an
	// adaptive cap that starts at max(4000, originals/3) and grows 10%
	// per reduction, so clause reuse across incremental calls never
	// degenerates into an unbounded database. Negative disables
	// reduction entirely.
	MaxLearned int

	// Stats accumulates counters across the solver's lifetime.
	Stats struct {
		Decisions, Propagations, Conflicts, Learned, Restarts int64
		// Reductions counts learned-database reduction passes; Deleted
		// counts the clauses they dropped, including clauses satisfied
		// at the top level.
		Reductions, Deleted int64
		// SolveCalls counts Solve invocations over the solver's
		// lifetime, so incremental callers can bill per-probe deltas.
		SolveCalls int64
	}

	// Progress, when non-nil, is invoked with the current call's
	// conflict and decision counts at the same boundary where the
	// context is polled (every ctxPollInterval search steps), so an
	// observer can sample the conflict rate of a long proof without
	// touching the search hot path: the nil check is the only cost
	// when unset. The callback runs on the solving goroutine and must
	// be cheap; the CEC engine installs a throttled trace sampler.
	Progress func(conflicts, decisions int64)
}

// New returns a solver preallocated for nvars variables (more may be
// created on demand by AddClause).
func New(nvars int) *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	s.order = &varHeap{solver: s}
	s.ensure(nvars)
	return s
}

// NumVars returns the current variable count.
func (s *Solver) NumVars() int { return len(s.assign) }

// NewVar creates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.ensure(v + 1)
	return v
}

func (s *Solver) ensure(nvars int) {
	for len(s.assign) < nvars {
		s.assign = append(s.assign, lUndef)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, -1)
		s.phase = append(s.phase, false)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, s.newWatchList(), s.newWatchList())
		s.order.push(len(s.assign) - 1)
	}
}

// newWatchList returns an empty watch list with watchInit slots of
// capacity from the watch arena.
func (s *Solver) newWatchList() []watch {
	if cap(s.watchArena)-len(s.watchArena) < watchInit {
		s.watchArena = make([]watch, 0, watchChunk)
	}
	i := len(s.watchArena)
	s.watchArena = s.watchArena[:i+watchInit]
	return s.watchArena[i : i : i+watchInit]
}

// newOriginal stores an original clause's literals and header in the
// arenas and returns the header.
func (s *Solver) newOriginal(lits []Lit) *clause {
	n := len(lits)
	if cap(s.litArena)-len(s.litArena) < n {
		s.litArena = make([]Lit, 0, max(litChunk, n))
	}
	i := len(s.litArena)
	s.litArena = append(s.litArena, lits...)
	if len(s.clauseArena) == cap(s.clauseArena) {
		s.clauseArena = make([]clause, 0, clauseChunk)
	}
	s.clauseArena = append(s.clauseArena, clause{lits: s.litArena[i : i+n : i+n]})
	return &s.clauseArena[len(s.clauseArena)-1]
}

// sortLits sorts a clause's literals: insertion sort for the short
// clauses Tseitin encoding produces, slices.Sort otherwise.
func sortLits(ls []Lit) {
	if len(ls) > 12 {
		slices.Sort(ls)
		return
	}
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

func (s *Solver) litValue(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause (a disjunction of literals). Returns false if
// the formula became trivially unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsatisf {
		return false
	}
	maxVar := -1
	for _, l := range lits {
		if l.Var() > maxVar {
			maxVar = l.Var()
		}
	}
	s.ensure(maxVar + 1)

	// Normalize in the scratch buffer: sort, drop duplicates and false
	// literals, detect tautologies and satisfied clauses (only
	// top-level assignments exist during clause loading).
	s.addBuf = append(s.addBuf[:0], lits...)
	ls := s.addBuf
	sortLits(ls)
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology
		}
		switch s.litValue(l) {
		case lTrue:
			return true // already satisfied
		case lFalse:
			continue // drop
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.unsatisf = true
		return false
	case 1:
		if !s.enqueue(out[0], -1) {
			s.unsatisf = true
			return false
		}
		if s.propagate() >= 0 {
			s.unsatisf = true
			return false
		}
		return true
	}
	s.attach(s.newOriginal(out))
	return true
}

func (s *Solver) attach(c *clause) int {
	cref := len(s.clauses)
	s.clauses = append(s.clauses, c)
	s.watchClause(int32(cref), c)
	if c.learned {
		s.numLearned++
	} else {
		s.numOrig++
	}
	return cref
}

// watchClause watches the clause's first two literals.
func (s *Solver) watchClause(cref int32, c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watch{cref, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watch{cref, c.lits[0]})
}

// NumLearned returns the number of live learned clauses — the knowledge
// an incremental caller reuses on its next Solve.
func (s *Solver) NumLearned() int { return s.numLearned }

// NumClauses returns the number of live clauses, original plus learned
// (unit clauses live on the trail and are not counted).
func (s *Solver) NumClauses() int { return s.numOrig + s.numLearned }

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLm)) }

func (s *Solver) enqueue(l Lit, reason int) bool {
	switch s.litValue(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = reason
	s.trail = append(s.trail, l)
	return true
}

// propagate runs unit propagation; it returns the index of a conflicting
// clause, or -1.
func (s *Solver) propagate() int {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[p]
		j := 0
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := s.clauses[w.cref]
			// Ensure the false literal (¬p) is in slot 1.
			if c.lits[0] == p.Not() {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			first := c.lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[j] = watch{w.cref, first}
				j++
				continue
			}
			// Find a new literal to watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watch{w.cref, first})
					found = true
					break
				}
			}
			if found {
				continue // this watch moves; do not keep it
			}
			// Clause is unit or conflicting.
			if s.litValue(first) == lFalse {
				// Conflict: restore remaining watches.
				for ; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return int(w.cref)
			}
			ws[j] = w
			j++
			s.enqueue(first, int(w.cref))
		}
		s.watches[p] = ws[:j]
	}
	return -1
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

// bumpClause rewards a learned clause that took part in a conflict
// derivation; reduceDB deletes from the cold end of this activity order.
func (s *Solver) bumpClause(c *clause) {
	if !c.learned {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, d := range s.clauses {
			d.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backjump level.
//
// The returned clause lives in a scratch buffer that the next analyze
// overwrites; solve copies it before storing it.
func (s *Solver) analyze(confl int) ([]Lit, int32) {
	learned := append(s.learnBuf[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	cref := confl
	toClear := s.toClear[:0]

	for {
		c := s.clauses[cref]
		s.bumpClause(c)
		start := 0
		if p != -1 {
			start = 1
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			toClear = append(toClear, v)
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learned = append(learned, q)
			}
		}
		// Find next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learned[0] = p.Not()
			break
		}
		cref = s.reason[v]
	}

	// Recursive minimization: drop literals implied by the rest.
	abstract := uint32(0)
	for _, l := range learned[1:] {
		abstract |= 1 << (uint(s.level[l.Var()]) & 31)
	}
	j := 1
	for i := 1; i < len(learned); i++ {
		v := learned[i].Var()
		if s.reason[v] == -1 || !s.redundant(learned[i], abstract, &toClear) {
			learned[j] = learned[i]
			j++
		}
	}
	learned = learned[:j]

	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learnBuf, s.toClear = learned, toClear

	// Backjump level = max level among learned[1:].
	bt := int32(0)
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		bt = s.level[learned[1].Var()]
	}
	return learned, bt
}

// redundant checks whether literal l is implied by the remaining learned
// literals (MiniSat's litRedundant).
func (s *Solver) redundant(l Lit, abstract uint32, toClear *[]int) bool {
	stack := append(s.minStack[:0], l)
	top := len(*toClear)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c := s.clauses[s.reason[p.Var()]]
		for _, q := range c.lits[1:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			if s.reason[v] == -1 || (1<<(uint(s.level[v])&31))&abstract == 0 {
				// Not removable: undo marks made during this check.
				for _, u := range (*toClear)[top:] {
					s.seen[u] = false
				}
				*toClear = (*toClear)[:top]
				s.minStack = stack
				return false
			}
			s.seen[v] = true
			*toClear = append(*toClear, v)
			stack = append(stack, q)
		}
	}
	s.minStack = stack
	return true
}

// analyzeFinal computes the failed-assumption core once assumption p
// turned out false under the earlier assumptions: the subset of
// assumption literals whose conjunction already contradicts the clause
// set. It walks the implication graph from p's complement back to the
// decisions of the assumption prefix (MiniSat's analyzeFinal).
func (s *Solver) analyzeFinal(p Lit) []Lit {
	core := []Lit{p}
	if s.decisionLevel() == 0 || s.level[p.Var()] == 0 {
		// p was refuted by top-level propagation alone: p is the
		// entire core.
		return core
	}
	s.seen[p.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLm[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		s.seen[v] = false
		if s.reason[v] == -1 {
			// A decision inside the assumption prefix is an earlier
			// assumption (decisions proper only exist above the prefix,
			// and solve detects assumption failure while extending it).
			core = append(core, s.trail[i])
			continue
		}
		for _, l := range s.clauses[s.reason[v]].lits[1:] {
			if s.level[l.Var()] > 0 {
				s.seen[l.Var()] = true
			}
		}
	}
	s.seen[p.Var()] = false
	return core
}

// Core returns the failed-assumption core of the most recent Solve call
// that returned Unsat under assumptions: a subset of the assumption
// literals whose conjunction is already contradictory with the clause
// set. It returns nil when the clause set is unsatisfiable on its own
// (no assumptions needed) or when the last call did not return Unsat.
// The slice is owned by the caller; a later Solve overwrites nothing.
func (s *Solver) Core() []Lit { return s.core }

func (s *Solver) cancelUntil(lv int32) {
	if s.decisionLevel() <= lv {
		return
	}
	bound := s.trailLm[lv]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.phase[v] = s.assign[v] == lTrue
		s.assign[v] = lUndef
		s.reason[v] = -1
		s.order.pushIfAbsent(v)
	}
	s.trail = s.trail[:bound]
	s.trailLm = s.trailLm[:lv]
	s.qhead = len(s.trail)
}

// locked reports whether the clause is the antecedent of its first
// literal's current assignment; such clauses must survive reduction.
func (s *Solver) locked(cref int) bool {
	c := s.clauses[cref]
	l := c.lits[0]
	return s.litValue(l) == lTrue && s.reason[l.Var()] == cref
}

// satisfiedAtTopLevel reports whether the clause holds a literal made
// permanently true at decision level 0 — e.g. by a unit learned since
// the clause was added. Such a clause can never propagate again and may
// be reclaimed.
func (s *Solver) satisfiedAtTopLevel(c *clause) bool {
	for _, l := range c.lits {
		if s.litValue(l) == lTrue && s.level[l.Var()] == 0 {
			return true
		}
	}
	return false
}

// releaseTopLevelReasons drops the antecedent references of top-level
// assignments. Conflict analysis and core extraction skip level-0
// literals, so these reasons are never dereferenced again — releasing
// them unlocks their clauses for reclamation (a top-level-satisfied
// clause that was some unit's antecedent would otherwise stay locked
// forever).
func (s *Solver) releaseTopLevelReasons() {
	end := len(s.trail)
	if s.decisionLevel() > 0 {
		end = int(s.trailLm[0])
	}
	for _, l := range s.trail[:end] {
		s.reason[l.Var()] = -1
	}
}

// reduceDB halves the learned-clause database, keeping the hot half by
// clause activity plus everything a CDCL invariant needs: antecedents
// of current assignments and binary clauses. Top-level-satisfied
// clauses are reclaimed regardless of activity.
func (s *Solver) reduceDB() {
	s.releaseTopLevelReasons()
	var cand []int
	for cref, c := range s.clauses {
		if s.locked(cref) {
			continue
		}
		if s.satisfiedAtTopLevel(c) {
			c.deleted = true
			continue
		}
		if c.learned && len(c.lits) > 2 {
			cand = append(cand, cref)
		}
	}
	// Stable sort with the cref order as tie-break keeps the reduction
	// deterministic for identical call sequences.
	slices.SortStableFunc(cand, func(a, b int) int {
		return cmp.Compare(s.clauses[a].act, s.clauses[b].act)
	})
	for _, cref := range cand[:len(cand)/2] {
		s.clauses[cref].deleted = true
	}
	s.compact()
	s.Stats.Reductions++
}

// compact removes deleted clauses, remapping the clause references held
// by assignment reasons and rebuilding the watch lists. Watches are
// always on lits[0] and lits[1] (attach establishes it, propagate
// preserves it by swapping within the clause), so reattaching those two
// literals reproduces the exact watch state.
func (s *Solver) compact() {
	remap := make([]int, len(s.clauses))
	kept := 0
	for cref, c := range s.clauses {
		if c.deleted {
			remap[cref] = -1
			if c.learned {
				s.numLearned--
			} else {
				s.numOrig--
			}
			s.Stats.Deleted++
			continue
		}
		remap[cref] = kept
		s.clauses[kept] = c
		kept++
	}
	s.clauses = s.clauses[:kept]
	for _, l := range s.trail {
		v := l.Var()
		if r := s.reason[v]; r >= 0 {
			// Locked clauses are never deleted, so the remap is total
			// over live reasons.
			s.reason[v] = remap[r]
		}
	}
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for cref, c := range s.clauses {
		s.watchClause(int32(cref), c)
	}
}

// learnedCap returns the current learned-database cap, or a negative
// value when reduction is disabled.
func (s *Solver) learnedCap() float64 {
	if s.MaxLearned > 0 {
		return float64(s.MaxLearned)
	}
	if s.MaxLearned < 0 {
		return -1
	}
	if s.maxLearned == 0 {
		base := s.numOrig / 3
		if base < 4000 {
			base = 4000
		}
		s.maxLearned = float64(base)
	}
	return s.maxLearned
}

// pickBranch returns the next decision literal, or -1 once every
// eligible variable is assigned. Unrestricted (cone == nil) it pops the
// most active unassigned variable off the order heap. Restricted to a
// cone it scans the cone's list for its most active unassigned variable
// and leaves the heap alone, so a cone-limited call costs O(cone) per
// decision whatever the solver's size.
func (s *Solver) pickBranch(cone []int) Lit {
	if cone != nil {
		best := -1
		for _, v := range cone {
			if s.assign[v] == lUndef && (best < 0 || s.activity[v] > s.activity[best]) {
				best = v
			}
		}
		if best < 0 {
			return -1
		}
		return MkLit(best, !s.phase[best])
	}
	for {
		v, ok := s.order.pop()
		if !ok {
			return -1
		}
		if s.assign[v] == lUndef {
			return MkLit(v, !s.phase[v])
		}
	}
}

// luby computes the reluctant-doubling restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i >= 1<<uint(k-1) && i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// ctxPollInterval is the number of search steps (conflicts plus
// decisions) between context polls: frequent enough that cancellation
// latency stays far below any realistic miter budget, rare enough that
// the ctx.Err mutex and the clock read never show up in profiles.
const ctxPollInterval = 128

// Expired reports whether ctx is canceled or past its deadline; a nil
// ctx never expires. It reads the clock against ctx.Deadline() rather
// than trusting ctx.Err alone: Err flips only when the runtime runs the
// deadline's timer, which a CPU-bound loop at GOMAXPROCS=1 can hold off
// for many milliseconds. Every budget poll in the solver, fraig and the
// CEC stages uses it.
func Expired(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// solve decides satisfiability under the given assumption literals,
// branching only on the variables listed in cone (nil allows all). On
// Sat, Model reports variable values. On Unknown the conflict budget
// was exhausted; on Canceled the context fired first.
func (s *Solver) solve(ctx context.Context, cone []int, assumptions ...Lit) Status {
	s.core = nil
	s.Stats.SolveCalls++
	if s.unsatisf {
		return Unsat
	}
	if Expired(ctx) {
		return Canceled
	}
	s.conflicts = 0
	s.decisions = 0
	restartNum := int64(1)
	restartLimit := luby(restartNum) * 64
	tick := 0

	defer s.cancelUntil(0)
	for {
		confl := s.propagate()
		if confl >= 0 {
			s.Stats.Conflicts++
			s.conflicts++
			if tick++; tick >= ctxPollInterval {
				tick = 0
				if s.Progress != nil {
					s.Progress(s.conflicts, s.decisions)
				}
				if Expired(ctx) {
					return Canceled
				}
			}
			if s.decisionLevel() == 0 {
				// A conflict with no decisions means the clause set
				// itself is contradictory; latch it so later Solve
				// calls (whose propagation queue is already drained)
				// cannot wrongly report Sat.
				s.unsatisf = true
				return Unsat
			}
			learned, bt := s.analyze(confl)
			s.cancelUntil(bt)
			if len(learned) == 1 {
				s.enqueue(learned[0], -1)
			} else {
				c := &clause{lits: slices.Clone(learned), learned: true}
				cref := s.attach(c)
				s.Stats.Learned++
				s.enqueue(learned[0], cref)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if cap := s.learnedCap(); cap > 0 && float64(s.numLearned) > cap {
				// The just-learned clause is the reason of its asserting
				// literal, so it is locked and survives the reduction.
				s.reduceDB()
				if s.MaxLearned == 0 {
					s.maxLearned *= 1.1
				}
			}
			if s.MaxConflicts > 0 && s.conflicts >= s.MaxConflicts {
				return Unknown
			}
			if s.conflicts >= restartLimit {
				restartNum++
				restartLimit = s.conflicts + luby(restartNum)*64
				s.Stats.Restarts++
				s.cancelUntil(int32(len(assumptions)))
			}
			continue
		}
		// No conflict: extend assumptions, then decide.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep the
				// level↔assumption correspondence.
				s.trailLm = append(s.trailLm, int32(len(s.trail)))
			case lFalse:
				// The clause set refutes this assumption under the
				// earlier ones: extract which assumptions conspired.
				s.core = s.analyzeFinal(a)
				return Unsat
			default:
				s.trailLm = append(s.trailLm, int32(len(s.trail)))
				s.enqueue(a, -1)
			}
			continue
		}
		if tick++; tick >= ctxPollInterval {
			tick = 0
			if s.Progress != nil {
				s.Progress(s.conflicts, s.decisions)
			}
			if Expired(ctx) {
				return Canceled
			}
		}
		l := s.pickBranch(cone)
		if l == -1 {
			// Capture the model before the deferred backtrack erases it.
			s.lastModel = s.lastModel[:0]
			for _, a := range s.assign {
				s.lastModel = append(s.lastModel, a == lTrue)
			}
			return Sat
		}
		s.Stats.Decisions++
		s.decisions++
		s.trailLm = append(s.trailLm, int32(len(s.trail)))
		s.enqueue(l, -1)
	}
}

// Solve decides satisfiability under the given assumptions.
func (s *Solver) Solve(assumptions ...Lit) Status {
	return s.solve(nil, nil, assumptions...)
}

// SolveCtx is Solve with cooperative cancellation: the context is polled
// at conflict and decision boundaries, and cancellation or deadline
// expiry returns Canceled. Learned clauses are kept, so a later call can
// resume from the accumulated knowledge.
func (s *Solver) SolveCtx(ctx context.Context, assumptions ...Lit) Status {
	return s.solve(ctx, nil, assumptions...)
}

// SolveMaskCtx is SolveCtx that branches only on the variables listed
// in cone; nil allows every variable, an empty non-nil list none. Other
// variables are assigned only by propagation, so a Sat answer is
// complete once every cone variable is assigned, and its model is
// meaningful only on the cone and on the variables propagation
// assigned. That answer is sound when every variable outside the cone
// is functionally defined by the others (a Tseitin encoding restricted
// to a fanin-closed cone): any assignment consistent on the cone then
// extends to a full model. The cone applies to this call only; the
// call never pops the solver's global branching order, so its cost per
// decision is O(len(cone)) however many variables the solver holds.
func (s *Solver) SolveMaskCtx(ctx context.Context, cone []int, assumptions ...Lit) Status {
	return s.solve(ctx, cone, assumptions...)
}

// SolveModel runs Solve and, on Sat, also returns the model, indexed by
// variable.
func (s *Solver) SolveModel(assumptions ...Lit) (Status, []bool) {
	return s.SolveModelCtx(nil, assumptions...)
}

// SolveModelCtx is SolveModel with cooperative cancellation (see
// SolveCtx).
func (s *Solver) SolveModelCtx(ctx context.Context, assumptions ...Lit) (Status, []bool) {
	st := s.solve(ctx, nil, assumptions...)
	if st != Sat {
		return st, nil
	}
	return st, slices.Clone(s.lastModel)
}

// LastConflicts returns the conflict count of the most recent Solve
// call (as opposed to Stats.Conflicts, which accumulates over the
// solver's lifetime). The CEC engine uses it for per-miter accounting.
func (s *Solver) LastConflicts() int64 { return s.conflicts }

// LastDecisions returns the decision count of the most recent Solve call.
func (s *Solver) LastDecisions() int64 { return s.decisions }

// Model returns variable v's value in the most recent Sat result.
func (s *Solver) Model(v int) bool {
	if s.lastModel == nil {
		return false
	}
	return s.lastModel[v]
}
