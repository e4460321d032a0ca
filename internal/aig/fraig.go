package aig

import (
	"context"
	"math/rand"
	"time"

	"seqver/internal/obs"
	"seqver/internal/sat"
)

// FraigOptions bounds the functional-reduction effort; zero values select
// defaults.
type FraigOptions struct {
	SimWords     int   // 64-pattern signature words per node
	MaxConflicts int64 // SAT budget per proof; Unknown keeps nodes separate
	MaxClassSize int   // candidates compared per signature class
	Seed         int64
	// Workers shards the signature simulation pass across goroutines
	// (level-batched, see SimSchedule). The merge loop itself stays
	// sequential — it owns the SAT solver. 0 or 1 means serial.
	Workers int
}

// FraigStats reports what a functional-reduction pass accomplished.
type FraigStats struct {
	NodesBefore int // AND nodes in the input AIG
	NodesAfter  int // AND nodes after merging and compaction
	Merges      int // nodes merged into a proven-equivalent representative
	ProveCalls  int // SAT equivalence proofs attempted
	ProveFailed int // candidates kept separate (refuted or budget hit)
}

func (o *FraigOptions) defaults() {
	if o.SimWords == 0 {
		o.SimWords = 4
	}
	if o.MaxConflicts == 0 {
		o.MaxConflicts = 2000
	}
	if o.MaxClassSize == 0 {
		o.MaxClassSize = 8
	}
}

// Fraig functionally reduces the AIG: nodes proven equivalent up to
// complement are merged, in the style of Kuehlmann-Krohm (DAC'97) and the
// FRAIG literature. Random simulation signatures partition nodes into
// candidate classes; an incremental SAT solver confirms candidates. The
// returned AIG is compacted to the output cones and function-identical to
// the input.
func Fraig(a *AIG, opt FraigOptions) *AIG {
	out, _ := FraigEx(a, opt)
	return out
}

// FraigEx is Fraig returning reduction statistics alongside the AIG.
func FraigEx(a *AIG, opt FraigOptions) (*AIG, *FraigStats) {
	return FraigExCtx(nil, a, opt)
}

// FraigExCtx is FraigEx under cooperative cancellation: once ctx is
// canceled (or past its deadline) the sweep stops attempting SAT merge
// proofs and degrades to a plain structural copy, so it always returns a
// function-identical AIG promptly — possibly less reduced than an
// unbudgeted run would produce, but never wrong. A nil ctx never fires.
func FraigExCtx(ctx context.Context, a *AIG, opt FraigOptions) (*AIG, *FraigStats) {
	opt.defaults()
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	k := opt.SimWords
	stats := &FraigStats{NodesBefore: a.NumAnds()}

	piPatterns := make([][]uint64, a.numPIs)
	for i := range piPatterns {
		ws := make([]uint64, k)
		for j := range ws {
			ws[j] = rng.Uint64()
		}
		piPatterns[i] = ws
	}
	// Signature pass: every new-AIG node below is function-identical to
	// the input node it is created for (representatives preserve
	// functions exactly), so all signatures can be precomputed on the
	// input AIG in one sharded sweep instead of word-by-word inside the
	// sequential merge loop.
	var sch *SimSchedule
	if opt.Workers > 1 {
		sch = a.NewSimSchedule()
	}
	sigIn := a.SimWordsK(sch, piPatterns, k, opt.Workers)

	out := New(a.PINames())
	// Per new-AIG node: k signature words (const + PIs match the input
	// AIG's leading nodes exactly).
	sig := make([][]uint64, 0, a.NumNodes())
	sig = append(sig, sigIn[:a.numPIs+1]...)

	solver := sat.New(0)
	cnf := &CNFMap{VarOf: make(map[uint32]int)}
	// expired flips once the context fires; from then on no further merge
	// proofs are attempted and the loop below is a pure structural copy.
	expired := false
	ctxTick := 0
	pollCtx := func() bool {
		if expired || ctx == nil {
			return expired
		}
		if ctxTick++; ctxTick >= 512 {
			ctxTick = 0
			expired = ctx.Err() != nil
		}
		return expired
	}
	prove := func(x, y Lit) bool {
		stats.ProveCalls++
		lx := out.Encode(solver, cnf, x)
		ly := out.Encode(solver, cnf, y)
		solver.MaxConflicts = opt.MaxConflicts
		ok := solver.SolveCtx(ctx, lx, ly.Not()) == sat.Unsat &&
			solver.SolveCtx(ctx, lx.Not(), ly) == sat.Unsat
		if !ok {
			stats.ProveFailed++
		}
		return ok
	}

	// normEdge returns the polarity-normalized edge of a node (bit 0 of
	// signature word 0 cleared) — equivalence up to complement becomes
	// plain equality of normalized edges.
	normEdge := func(nd uint32) Lit {
		return MkLit(nd, sig[nd][0]&1 == 1)
	}
	classes := make(map[[2]uint64][]Lit)
	classKey := func(nd uint32) [2]uint64 {
		var key [2]uint64
		inv := sig[nd][0]&1 == 1
		for j := 0; j < k; j++ {
			w := sig[nd][j]
			if inv {
				w = ^w
			}
			key[j%2] ^= w*0x9e3779b97f4a7c15 + uint64(j)
		}
		return key
	}
	enroll := func(nd uint32) {
		key := classKey(nd)
		classes[key] = append(classes[key], normEdge(nd))
	}
	for nd := uint32(0); nd <= uint32(out.numPIs); nd++ {
		enroll(nd)
	}

	// Trace sampling: the merge loop reports nodes swept and merges so
	// far, so a long sweep shows as a moving gauge instead of a silent
	// gap (the "fraig sweep batches" view of the trace).
	obsSpan := obs.CurrentSpan(ctx)
	obsThr := obs.NewThrottle(100 * time.Millisecond)

	repr := make([]Lit, a.NumNodes())
	repr[0] = False
	for i := 1; i <= a.numPIs; i++ {
		repr[i] = MkLit(uint32(i), false)
	}
	for i := a.numPIs + 1; i < a.NumNodes(); i++ {
		if obsSpan != nil && i&0xfff == 0 && obsThr.Ok() {
			obsSpan.Gauge("fraig.swept", int64(i-a.numPIs))
			obsSpan.Gauge("fraig.merges", int64(stats.Merges))
		}
		e0 := a.fanin0[uint32(i)]
		e1 := a.fanin1[uint32(i)]
		f0 := repr[e0.Node()].NotIf(e0.Compl())
		f1 := repr[e1.Node()].NotIf(e1.Compl())
		e := out.And(f0, f1)
		nd := e.Node()
		if int(nd) >= len(sig) {
			// Fresh structural node: function-identical to input node i,
			// so its signature was already computed in the sharded pass.
			sig = append(sig, sigIn[i])
			me := normEdge(nd)
			key := classKey(nd)
			merged := false
			for ci, cand := range classes[key] {
				if ci >= opt.MaxClassSize || pollCtx() {
					break
				}
				if sameSig(sig, me, cand, k) && prove(me, cand) {
					// me ≡ cand, so node nd == cand adjusted for nd's
					// normalization polarity.
					e = cand.NotIf(me.Compl()).NotIf(e.Compl())
					merged = true
					stats.Merges++
					break
				}
			}
			if !merged {
				classes[key] = append(classes[key], me)
			}
		}
		repr[i] = e
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), repr[p.Node()].NotIf(p.Compl()))
	}
	res := Compact(out)
	stats.NodesAfter = res.NumAnds()
	return res, stats
}

func sameSig(sig [][]uint64, x, y Lit, k int) bool {
	for j := 0; j < k; j++ {
		wx := sig[x.Node()][j]
		if x.Compl() {
			wx = ^wx
		}
		wy := sig[y.Node()][j]
		if y.Compl() {
			wy = ^wy
		}
		if wx != wy {
			return false
		}
	}
	return true
}

// Compact copies the PO cones into a fresh structurally hashed AIG,
// dropping unreachable nodes.
func Compact(a *AIG) *AIG {
	out := New(a.PINames())
	memo := make([]Lit, a.NumNodes())
	for i := range memo {
		memo[i] = Lit(^uint32(0))
	}
	memo[0] = False
	for i := 1; i <= a.numPIs; i++ {
		memo[i] = MkLit(uint32(i), false)
	}
	var rec func(n uint32) Lit
	rec = func(n uint32) Lit {
		if memo[n] != Lit(^uint32(0)) {
			return memo[n]
		}
		f0 := rec(a.fanin0[n].Node()).NotIf(a.fanin0[n].Compl())
		f1 := rec(a.fanin1[n].Node()).NotIf(a.fanin1[n].Compl())
		e := out.And(f0, f1)
		memo[n] = e
		return e
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), rec(p.Node()).NotIf(p.Compl()))
	}
	return out
}

// Balance rebuilds the AIG with balanced conjunction trees: multi-input
// ANDs are re-associated to logarithmic depth, the delay-oriented
// restructuring step of the synthesis script substitute.
func Balance(a *AIG) *AIG {
	out := New(a.PINames())
	memo := make([]Lit, a.NumNodes())
	for i := range memo {
		memo[i] = Lit(^uint32(0))
	}
	memo[0] = False
	for i := 1; i <= a.numPIs; i++ {
		memo[i] = MkLit(uint32(i), false)
	}
	// Fanout counts: a multi-fanout node is a tree boundary (its value
	// is shared, re-associating through it would duplicate logic).
	fanout := make([]int, a.NumNodes())
	for i := a.numPIs + 1; i < a.NumNodes(); i++ {
		fanout[a.fanin0[uint32(i)].Node()]++
		fanout[a.fanin1[uint32(i)].Node()]++
	}
	for i := 0; i < a.NumPOs(); i++ {
		fanout[a.PO(i).Node()]++
	}
	// Incremental level tracking for the output AIG: nodes are created
	// in topological order, so a new node's fanin levels are known.
	lev := make([]int, out.NumNodes())
	levOf := func(e Lit) int { return lev[e.Node()] }
	andTracked := func(x, y Lit) Lit {
		e := out.And(x, y)
		for len(lev) < out.NumNodes() {
			n := uint32(len(lev))
			l0 := lev[out.fanin0[n].Node()]
			if l1 := lev[out.fanin1[n].Node()]; l1 > l0 {
				l0 = l1
			}
			lev = append(lev, l0+1)
		}
		return e
	}
	// balancedAnd conjoins leaves pairing the two shallowest values
	// first (Huffman-style), minimizing output level under unit delays.
	balancedAnd := func(leaves []Lit) Lit {
		if len(leaves) == 0 {
			return True
		}
		work := append([]Lit(nil), leaves...)
		for len(work) > 1 {
			best := func(skip int) int {
				b := -1
				for i := range work {
					if i == skip {
						continue
					}
					if b == -1 || levOf(work[i]) < levOf(work[b]) {
						b = i
					}
				}
				return b
			}
			i := best(-1)
			j := best(i)
			merged := andTracked(work[i], work[j])
			if i > j {
				i, j = j, i
			}
			work[i] = merged
			work = append(work[:j], work[j+1:]...)
		}
		return work[0]
	}
	// collect gathers the conjunction leaves of n's AND tree, stopping
	// at complemented edges, PIs, and shared nodes.
	var build func(n uint32) Lit
	var collect func(e Lit, leaves *[]Lit)
	collect = func(e Lit, leaves *[]Lit) {
		n := e.Node()
		if e.Compl() || a.IsPI(n) || a.IsConst(n) || fanout[n] > 1 {
			*leaves = append(*leaves, build(n).NotIf(e.Compl()))
			return
		}
		collect(a.fanin0[n], leaves)
		collect(a.fanin1[n], leaves)
	}
	build = func(n uint32) Lit {
		if memo[n] != Lit(^uint32(0)) {
			return memo[n]
		}
		if a.IsPI(n) || a.IsConst(n) {
			panic("aig: Balance leaf not prefilled")
		}
		var leaves []Lit
		collect(a.fanin0[n], &leaves)
		collect(a.fanin1[n], &leaves)
		e := balancedAnd(leaves)
		memo[n] = e
		return e
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), build(p.Node()).NotIf(p.Compl()))
	}
	return Compact(out)
}
