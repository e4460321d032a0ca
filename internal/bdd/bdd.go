// Package bdd implements reduced ordered binary decision diagrams with
// complement edges, in the style of CUDD/Brace-Rudell-Bryant. It is the
// symbolic engine behind unateness analysis (Section 6 of the paper),
// BDD sweeping in the combinational equivalence checker, and the
// product-machine reachability baseline.
//
// Edges are Ref values: a node index with a complement bit in the LSB.
// The then-edge of every stored node is regular (non-complemented), which
// makes the representation canonical: two functions are equal iff their
// Refs are equal.
//
// # Contract and budget semantics
//
// BDD sizes are input-dependent and can blow up exponentially (the
// paper's Section 2 baseline exists to demonstrate exactly that), so
// every Manager carries two recoverable brakes:
//
//   - MaxNodes bounds the node store. Exceeding it raises ErrNodeLimit
//     as a panic, converted to an ordinary error by CatchLimit — the
//     manager is not corrupted, only the interrupted computation is
//     abandoned.
//   - SetContext arms cooperative cancellation: node construction polls
//     the context every few thousand fresh nodes and raises ErrCanceled
//     the same way. This is what lets the CEC bdd engine honour a
//     wall-clock budget and stop mid-build when it runs out.
//
// Both brakes degrade a computation to "no answer" without ever
// producing a wrong Ref: any Ref returned before the brake fired is
// still canonical and valid. A Manager is not safe for concurrent use;
// concurrent callers each need their own instance.
package bdd

import (
	"context"
	"fmt"
	"math"
)

// Ref is an edge: (node index << 1) | complement bit.
type Ref uint32

// True and False are the constant functions.
const (
	True  Ref = 0
	False Ref = 1
)

func (r Ref) node() uint32       { return uint32(r) >> 1 }
func (r Ref) complemented() bool { return r&1 == 1 }

// Not returns the complement of r. Complementation is free with
// complement edges.
func (r Ref) Not() Ref { return r ^ 1 }

const terminalLevel = math.MaxInt32

type nodeKey struct {
	level  int32
	lo, hi Ref
}

type opKey struct {
	op      uint8
	f, g, h Ref
}

const (
	opITE uint8 = iota
	opExists
	opAndExists
)

// ErrNodeLimit is the panic value raised when the manager exceeds its
// configured node budget. Callers that want graceful degradation (e.g.
// the symbolic reachability baseline demonstrating blowup, or the CEC
// bdd engine) recover it via CatchLimit.
var ErrNodeLimit = fmt.Errorf("bdd: node limit exceeded")

// ErrCanceled is the panic value raised when a manager's context (see
// SetContext) is canceled mid-computation. Recover it via CatchLimit.
var ErrCanceled = fmt.Errorf("bdd: canceled")

// ctxPollInterval is the number of fresh nodes between context polls;
// node construction dominates any blowing-up computation, so this bounds
// cancellation latency without measurable overhead.
const ctxPollInterval = 2048

// Manager owns the node store, unique table, and operation caches.
type Manager struct {
	level []int32 // per node: variable level (== variable index)
	lo    []Ref   // per node: else edge
	hi    []Ref   // per node: then edge, always regular

	unique map[nodeKey]uint32
	cache  map[opKey]Ref

	numVars int
	// MaxNodes, when > 0, bounds the node store; exceeding it panics
	// with ErrNodeLimit.
	MaxNodes int

	ctx     context.Context // armed by SetContext; nil means no polling
	ctxTick int

	// Progress, when non-nil, is invoked with the live node count at
	// the same boundary where the context is polled (every
	// ctxPollInterval fresh nodes), so an observer can watch a BDD
	// build grow — or blow up — without touching the mk hot path: the
	// nil check is the only cost when unset. The callback runs on the
	// constructing goroutine and must be cheap; the CEC engine
	// installs a throttled trace sampler.
	Progress func(nodes int)
}

// SetContext arms cooperative cancellation: while ctx is live, node
// construction periodically polls it and panics with ErrCanceled once it
// is canceled or past its deadline (recover via CatchLimit). Passing nil
// disarms polling. The manager itself stays valid after a cancellation —
// only the interrupted computation is lost.
func (m *Manager) SetContext(ctx context.Context) { m.ctx = ctx }

// New creates a manager with the given number of variables. More can be
// added later with AddVar.
func New(numVars int) *Manager {
	m := &Manager{
		unique: make(map[nodeKey]uint32),
		cache:  make(map[opKey]Ref),
	}
	// Node 0 is the TRUE terminal.
	m.level = append(m.level, terminalLevel)
	m.lo = append(m.lo, True)
	m.hi = append(m.hi, True)
	for i := 0; i < numVars; i++ {
		m.AddVar()
	}
	return m
}

// NumVars returns the number of variables.
func (m *Manager) NumVars() int { return m.numVars }

// NumNodes returns the number of live nodes (including the terminal).
func (m *Manager) NumNodes() int { return len(m.level) }

// AddVar introduces a fresh variable at the bottom of the order and
// returns its index.
func (m *Manager) AddVar() int {
	v := m.numVars
	m.numVars++
	return v
}

// Var returns the function of variable v.
func (m *Manager) Var(v int) Ref {
	if v < 0 || v >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range [0,%d)", v, m.numVars))
	}
	return m.mk(int32(v), False, True)
}

// NVar returns the complement of variable v.
func (m *Manager) NVar(v int) Ref { return m.Var(v).Not() }

// mk finds or creates the node (level, lo, hi), enforcing reduction and
// the regular-then-edge invariant.
func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	// Canonical form: then edge regular.
	out := Ref(0)
	if hi.complemented() {
		lo, hi = lo.Not(), hi.Not()
		out = 1
	}
	k := nodeKey{level, lo, hi}
	if idx, ok := m.unique[k]; ok {
		return Ref(idx<<1) ^ out
	}
	if m.MaxNodes > 0 && len(m.level) >= m.MaxNodes {
		panic(ErrNodeLimit)
	}
	if m.ctxTick++; m.ctxTick >= ctxPollInterval {
		m.ctxTick = 0
		if m.Progress != nil {
			m.Progress(len(m.level))
		}
		if m.ctx != nil && m.ctx.Err() != nil {
			panic(ErrCanceled)
		}
	}
	idx := uint32(len(m.level))
	m.level = append(m.level, level)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.unique[k] = idx
	return Ref(idx<<1) ^ out
}

func (m *Manager) levelOf(r Ref) int32 { return m.level[r.node()] }

// cofactors returns the level-lv cofactors of r (r itself when its top
// level is below lv).
func (m *Manager) cofactors(r Ref, lv int32) (lo, hi Ref) {
	n := r.node()
	if m.level[n] != lv {
		return r, r
	}
	lo, hi = m.lo[n], m.hi[n]
	if r.complemented() {
		lo, hi = lo.Not(), hi.Not()
	}
	return lo, hi
}

// Ite computes if-then-else: f·g + ¬f·h.
func (m *Manager) Ite(f, g, h Ref) Ref {
	// Terminal cases.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	case g == False && h == True:
		return f.Not()
	}
	// Standardize: regular f.
	if f.complemented() {
		f, g, h = f.Not(), h, g
	}
	// Standardize: regular g (output complementation).
	neg := false
	if g.complemented() {
		g, h = g.Not(), h.Not()
		neg = true
	}
	k := opKey{opITE, f, g, h}
	if r, ok := m.cache[k]; ok {
		if neg {
			return r.Not()
		}
		return r
	}
	lv := m.levelOf(f)
	if l := m.levelOf(g); l < lv {
		lv = l
	}
	if l := m.levelOf(h); l < lv {
		lv = l
	}
	f0, f1 := m.cofactors(f, lv)
	g0, g1 := m.cofactors(g, lv)
	h0, h1 := m.cofactors(h, lv)
	r := m.mk(lv, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.cache[k] = r
	if neg {
		return r.Not()
	}
	return r
}

// And returns the conjunction of its arguments (True for none).
func (m *Manager) And(fs ...Ref) Ref {
	r := True
	for _, f := range fs {
		r = m.Ite(r, f, False)
	}
	return r
}

// Or returns the disjunction of its arguments (False for none).
func (m *Manager) Or(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.Ite(r, True, f)
	}
	return r
}

// Xor returns the parity of its arguments (False for none).
func (m *Manager) Xor(fs ...Ref) Ref {
	r := False
	for _, f := range fs {
		r = m.Ite(r, f.Not(), f)
	}
	return r
}

// Xnor returns the complemented parity of f and g.
func (m *Manager) Xnor(f, g Ref) Ref { return m.Xor(f, g).Not() }

// Implies returns ¬f + g.
func (m *Manager) Implies(f, g Ref) Ref { return m.Ite(f, g, True) }

// Leq reports f ≤ g (containment of onsets).
func (m *Manager) Leq(f, g Ref) bool { return m.Ite(f, g, True) == True }

// Cofactor returns f with variable v fixed to val.
func (m *Manager) Cofactor(f Ref, v int, val bool) Ref {
	lv := int32(v)
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		l := m.levelOf(r)
		if l > lv {
			return r
		}
		if l == lv {
			lo, hi := m.cofactors(r, lv)
			if val {
				return hi
			}
			return lo
		}
		if out, ok := memo[r]; ok {
			return out
		}
		lo, hi := m.cofactors(r, l)
		out := m.mk(l, rec(lo), rec(hi))
		memo[r] = out
		return out
	}
	return rec(f)
}

// Exists existentially quantifies the variables in cube (a conjunction of
// positive variables built with CubeVars) out of f.
func (m *Manager) Exists(f, cube Ref) Ref {
	if cube == True || f == True || f == False {
		return f
	}
	k := opKey{opExists, f, cube, 0}
	if r, ok := m.cache[k]; ok {
		return r
	}
	lv := m.levelOf(f)
	// Skip cube vars above f's top.
	c := cube
	for m.levelOf(c) < lv {
		_, c = m.cofactors(c, m.levelOf(c))
		if c == True {
			return f
		}
	}
	f0, f1 := m.cofactors(f, lv)
	var r Ref
	if m.levelOf(c) == lv {
		_, cnext := m.cofactors(c, lv)
		r = m.Or(m.Exists(f0, cnext), m.Exists(f1, cnext))
	} else {
		r = m.mk(lv, m.Exists(f0, c), m.Exists(f1, c))
	}
	m.cache[k] = r
	return r
}

// ForAll universally quantifies the cube's variables out of f.
func (m *Manager) ForAll(f, cube Ref) Ref {
	return m.Exists(f.Not(), cube).Not()
}

// AndExists computes ∃cube. f·g without building the full conjunction —
// the relational-product workhorse of symbolic reachability.
func (m *Manager) AndExists(f, g, cube Ref) Ref {
	switch {
	case f == False || g == False:
		return False
	case f == True && g == True:
		return True
	case f == True:
		return m.Exists(g, cube)
	case g == True:
		return m.Exists(f, cube)
	case f == g:
		return m.Exists(f, cube)
	case f == g.Not():
		return False
	}
	if f.node() > g.node() { // commutative: canonicalize cache key
		f, g = g, f
	}
	k := opKey{opAndExists, f, g, cube}
	if r, ok := m.cache[k]; ok {
		return r
	}
	lv := m.levelOf(f)
	if l := m.levelOf(g); l < lv {
		lv = l
	}
	c := cube
	for c != True && m.levelOf(c) < lv {
		_, c = m.cofactors(c, m.levelOf(c))
	}
	f0, f1 := m.cofactors(f, lv)
	g0, g1 := m.cofactors(g, lv)
	var r Ref
	if c != True && m.levelOf(c) == lv {
		_, cnext := m.cofactors(c, lv)
		r0 := m.AndExists(f0, g0, cnext)
		if r0 == True {
			r = True
		} else {
			r = m.Or(r0, m.AndExists(f1, g1, cnext))
		}
	} else {
		r = m.mk(lv, m.AndExists(f0, g0, c), m.AndExists(f1, g1, c))
	}
	m.cache[k] = r
	return r
}

// CubeVars builds the positive cube of the given variables, as consumed
// by Exists/ForAll/AndExists.
func (m *Manager) CubeVars(vars []int) Ref {
	r := True
	for i := len(vars) - 1; i >= 0; i-- {
		r = m.And(r, m.Var(vars[i]))
	}
	return r
}

// Compose substitutes function g for variable v in f.
func (m *Manager) Compose(f Ref, v int, g Ref) Ref {
	return m.VecCompose(f, map[int]Ref{v: g})
}

// VecCompose simultaneously substitutes sub[v] for each variable v in f.
func (m *Manager) VecCompose(f Ref, sub map[int]Ref) Ref {
	memo := make(map[Ref]Ref)
	var rec func(Ref) Ref
	rec = func(r Ref) Ref {
		if r == True || r == False {
			return r
		}
		if out, ok := memo[r]; ok {
			return out
		}
		lv := m.levelOf(r)
		lo, hi := m.cofactors(r, lv)
		v := int(lv)
		vf, ok := sub[v]
		if !ok {
			vf = m.Var(v)
		}
		out := m.Ite(vf, rec(hi), rec(lo))
		memo[r] = out
		return out
	}
	return rec(f)
}

// Eval evaluates f under a complete assignment indexed by variable.
func (m *Manager) Eval(f Ref, assign []bool) bool {
	for f != True && f != False {
		lv := m.levelOf(f)
		lo, hi := m.cofactors(f, lv)
		if assign[lv] {
			f = hi
		} else {
			f = lo
		}
	}
	return f == True
}

// Support returns the variables f depends on, ascending.
func (m *Manager) Support(f Ref) []int {
	seen := make(map[uint32]bool)
	inSup := make(map[int32]bool)
	var rec func(Ref)
	rec = func(r Ref) {
		n := r.node()
		if m.level[n] == terminalLevel || seen[n] {
			return
		}
		seen[n] = true
		inSup[m.level[n]] = true
		rec(m.lo[n])
		rec(m.hi[n])
	}
	rec(f)
	out := make([]int, 0, len(inSup))
	for v := int32(0); v < int32(m.numVars); v++ {
		if inSup[v] {
			out = append(out, int(v))
		}
	}
	return out
}

// Size returns the number of distinct nodes in f (excluding terminals).
func (m *Manager) Size(f Ref) int {
	seen := make(map[uint32]bool)
	var rec func(Ref)
	rec = func(r Ref) {
		n := r.node()
		if m.level[n] == terminalLevel || seen[n] {
			return
		}
		seen[n] = true
		rec(m.lo[n])
		rec(m.hi[n])
	}
	rec(f)
	return len(seen)
}

// SatCount returns the number of satisfying assignments of f over
// nvars variables, as a float64 (exact for counts below 2^53).
func (m *Manager) SatCount(f Ref, nvars int) float64 {
	memo := make(map[Ref]float64)
	var prob func(Ref) float64
	prob = func(r Ref) float64 {
		if r == True {
			return 1
		}
		if r == False {
			return 0
		}
		if p, ok := memo[r]; ok {
			return p
		}
		lv := m.levelOf(r)
		lo, hi := m.cofactors(r, lv)
		p := (prob(lo) + prob(hi)) / 2
		memo[r] = p
		return p
	}
	return prob(f) * math.Pow(2, float64(nvars))
}

// AnySat returns one satisfying assignment of f as a map from variable to
// value (variables not in the map are don't-cares), or nil if f == False.
func (m *Manager) AnySat(f Ref) map[int]bool {
	if f == False {
		return nil
	}
	out := make(map[int]bool)
	for f != True {
		lv := m.levelOf(f)
		lo, hi := m.cofactors(f, lv)
		if lo != False {
			out[int(lv)] = false
			f = lo
		} else {
			out[int(lv)] = true
			f = hi
		}
	}
	return out
}

// PositiveUnate reports whether f is positive unate (monotone
// non-decreasing) in variable v: f|v=0 ≤ f|v=1. This is the Section 6
// feedback-decomposition criterion.
func (m *Manager) PositiveUnate(f Ref, v int) bool {
	return m.Leq(m.Cofactor(f, v, false), m.Cofactor(f, v, true))
}

// NegativeUnate reports whether f is negative unate in v.
func (m *Manager) NegativeUnate(f Ref, v int) bool {
	return m.Leq(m.Cofactor(f, v, true), m.Cofactor(f, v, false))
}

// ClearCache drops the operation cache (the unique table is kept, so
// canonicity is preserved). Useful between unrelated large operations.
func (m *Manager) ClearCache() {
	m.cache = make(map[opKey]Ref)
}

// CatchLimit runs fn, converting an ErrNodeLimit or ErrCanceled panic
// into a returned error so callers can degrade gracefully when a
// computation blows up or its budget expires.
func CatchLimit(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && (e == ErrNodeLimit || e == ErrCanceled) {
				err = e
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}
