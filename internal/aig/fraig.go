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
	SimWords     int   // random 64-pattern words that key the classes when Keys is nil
	MaxConflicts int64 // SAT budget per proof; Unknown keeps nodes separate
	MaxClassSize int   // SAT proofs attempted per node
	Seed         int64
	// Keys, when non-nil, are class keys the caller folded from its own
	// simulation of the input AIG; fraig then simulates no key words.
	Keys *SimKeys
}

// FraigStats reports what a functional-reduction pass accomplished.
type FraigStats struct {
	NodesBefore int   // AND nodes in the input AIG
	NodesAfter  int   // AND nodes after merging and compaction (uncompacted after an expiry)
	Merges      int   // nodes merged into a proven-equivalent representative
	CutMerges   int   // merges settled by equal truth tables on a common cut, without SAT
	ProveCalls  int   // SAT equivalence proofs attempted
	ProveFailed int   // candidates kept separate (refuted or budget hit)
	Refuted     int   // failed proofs whose SAT model refined the signatures
	Conflicts   int64 // SAT conflicts over all proofs
	Decisions   int64 // SAT decisions over all proofs
	KeyWords    int   // pattern words folded into the class keys
}

// cutLeaves bounds the common cut a candidate pair is compared on
// before SAT: one uint64 holds a truth table over at most 6 leaves.
const cutLeaves = 6

// cutVars are the projection truth tables of the cut's leaf variables.
var cutVars = [cutLeaves]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
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
// proofs and strashes the remaining nodes onto the merges made so far,
// with no class bookkeeping and no compaction, so it always returns a
// function-identical AIG promptly — possibly less reduced than an
// unbudgeted run would produce, and holding dead nodes, but never
// wrong. A ctx already expired on entry returns a itself, with no
// simulation, copy or compaction. A nil ctx never fires.
//
// Candidate classes are keyed by simulation (Mishchenko et al.,
// ICCAD'06): nodes whose random pattern words agree, up to complement,
// share a class. The words come folded into opt.Keys when the caller
// has already simulated a (the CEC engine passes its stage-1 patterns);
// otherwise fraig simulates opt.SimWords words itself, folds them the
// same way and drops them. Either way the keys are SimKeys, so the two
// routes give the same classes for the same words. A refuted proof is
// paid for once: its counterexample becomes one more simulation
// pattern, and every later candidate pair that pattern separates is
// skipped without calling SAT. Each proof decides only the variables of
// the two nodes' cones.
//
// Before a proof, the pair is compared on a common cut of at most 6
// leaves (cut sweeping, Kuehlmann ICCAD'04): after earlier merges most
// equal pairs compute the same function of a few shared nodes just
// below them, and equal truth tables there settle the merge without
// SAT.
func FraigExCtx(ctx context.Context, a *AIG, opt FraigOptions) (*AIG, *FraigStats) {
	stats := &FraigStats{NodesBefore: a.NumAnds()}
	if sat.Expired(ctx) {
		stats.NodesAfter = stats.NodesBefore
		return a, stats
	}
	opt.defaults()
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	k := opt.SimWords

	// The seeded stream yields the k key words of each PI first and the
	// refinement patterns after them. A keyed call skips the key words,
	// so it refines exactly as a call that keys itself on those words.
	keys := opt.Keys
	if keys == nil {
		flat := make([]uint64, a.numPIs*k)
		piWords := make([][]uint64, a.numPIs)
		for i := range piWords {
			piWords[i] = flat[i*k : (i+1)*k : (i+1)*k]
			for j := range piWords[i] {
				piWords[i][j] = rng.Uint64()
			}
		}
		keys = NewSimKeys(a.NumNodes())
		keys.Fold(a.SimWordsK(nil, piWords, k), k, 0)
	} else {
		for range a.numPIs * k {
			rng.Uint64()
		}
	}
	stats.KeyWords = keys.Words()

	// Refinement signatures: sig holds column-major columns of one word
	// per input node, each packing the counterexamples of up to 64
	// refuted proofs (see refine). Class keys never change; the
	// columns act through sameSig alone.
	nodes := a.NumNodes()
	pend := make([]uint64, a.numPIs)
	var sig []uint64

	out := New(a.PINames())
	out.Grow(a.NumAnds())
	// src maps each new-AIG node to the input node it was created for.
	// The two are function-identical (representatives preserve functions
	// exactly), so new nodes read their keys and signatures through it.
	src := make([]uint32, out.NumNodes(), a.NumNodes())
	for i := range src {
		src[i] = uint32(i)
	}

	solver := sat.New(0)
	// Proofs encode nodes of out, which never outgrows a.
	solver.Reserve(a.NumNodes())
	solver.MaxConflicts = opt.MaxConflicts
	cnf := &CNFMap{}
	// expired flips once the context fires (or a proof comes back
	// Canceled); from then on no further merge proofs are attempted and
	// the rest of the sweep is a pure structural copy. The first poll
	// reads the context at once, so a budget that expires during
	// signature simulation proves nothing.
	expired := false
	ctxTick := 511
	pollCtx := func() bool {
		if expired || ctx == nil {
			return expired
		}
		if ctxTick++; ctxTick >= 512 {
			ctxTick = 0
			expired = sat.Expired(ctx)
		}
		return expired
	}

	// Cone-limited proofs: coneVars lists the solver variables of the
	// DFS cone of the two nodes under proof, and the solver branches on
	// those alone. Every other encoded variable is a free PI or a
	// Tseitin function of its fanins, so a cone-consistent assignment
	// extends to a full model and the solver need not decide it. decide
	// marks the cone's variables for the DFS and for refine.
	var decide []bool
	var coneVars []int
	var stack []uint32
	markCone := func(x, y Lit) {
		if n := solver.NumVars(); len(decide) < n {
			decide = append(decide, make([]bool, n-len(decide))...)
		}
		stack = append(stack[:0], x.Node(), y.Node())
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			v, _ := cnf.Var(n)
			if decide[v] {
				continue
			}
			decide[v] = true
			coneVars = append(coneVars, v)
			if n > uint32(out.numPIs) {
				stack = append(stack, out.fanin0[n].Node(), out.fanin1[n].Node())
			}
		}
	}

	// Counterexample refinement: a Sat answer writes the model's values
	// of the cone's PIs into bit fill of the pending PI words (every
	// other bit stays random) and re-simulates the last column in place.
	// A new column opens every 64 refutations.
	fill := 64
	refine := func() {
		if fill == 64 {
			for i := range pend {
				pend[i] = rng.Uint64()
			}
			sig = append(sig, make([]uint64, nodes)...)
			fill = 0
		}
		bit := uint64(1) << uint(fill)
		for i := range pend {
			if v, ok := cnf.Var(uint32(i + 1)); ok && decide[v] {
				if solver.Model(v) {
					pend[i] |= bit
				} else {
					pend[i] &^= bit
				}
			}
		}
		a.simInto(sig[len(sig)-nodes:], pend)
		fill++
	}

	prove := func(x, y Lit) bool {
		stats.ProveCalls++
		lx := out.Encode(solver, cnf, x)
		ly := out.Encode(solver, cnf, y)
		markCone(x, y)
		st := solver.SolveMaskCtx(ctx, coneVars, lx, ly.Not())
		if st == sat.Unsat {
			st = solver.SolveMaskCtx(ctx, coneVars, lx.Not(), ly)
		}
		switch st {
		case sat.Sat:
			stats.Refuted++
			refine()
		case sat.Canceled:
			expired = true
		}
		for _, v := range coneVars {
			decide[v] = false
		}
		coneVars = coneVars[:0]
		if st != sat.Unsat {
			stats.ProveFailed++
		}
		return st == sat.Unsat
	}

	// Cut check: the common cut of x and y starts as {x, y} and grows by
	// replacing its highest-numbered AND leaf with that node's fanins
	// for as long as it keeps at most cutLeaves leaves. Fanins lie below
	// the node they feed, so the expanded nodes come out in decreasing
	// order and every fanin of one is a leaf or expanded later; each
	// leaf takes one variable's truth table (the constant node keeps 0)
	// and the expanded nodes are evaluated back up. Equal tables mean
	// equal functions; unequal ones prove nothing, since leaves can be
	// correlated. stamp[n] == epoch marks n as a leaf of the current cut.
	stamp := make([]uint32, a.NumNodes())
	tt := make([]uint64, a.NumNodes())
	var epoch uint32
	var leaves, cone []uint32
	edgeTT := func(e Lit) uint64 { return tt[e.Node()] ^ -uint64(e&1) }
	cutEqual := func(x, y Lit) bool {
		epoch++
		leaves = append(leaves[:0], x.Node(), y.Node())
		stamp[x.Node()], stamp[y.Node()] = epoch, epoch
		cone = cone[:0]
		for {
			hi := -1
			for j, n := range leaves {
				if n > uint32(out.numPIs) && (hi < 0 || n > leaves[hi]) {
					hi = j
				}
			}
			if hi < 0 {
				break
			}
			n := leaves[hi]
			f0, f1 := out.fanin0[n].Node(), out.fanin1[n].Node()
			size := len(leaves) - 1 // the fanins of an AND are two distinct nodes
			if stamp[f0] != epoch {
				size++
			}
			if stamp[f1] != epoch {
				size++
			}
			if size > cutLeaves {
				break
			}
			leaves[hi] = leaves[len(leaves)-1]
			leaves = leaves[:len(leaves)-1]
			for _, f := range [2]uint32{f0, f1} {
				if stamp[f] != epoch {
					stamp[f] = epoch
					leaves = append(leaves, f)
				}
			}
			cone = append(cone, n)
		}
		for j, n := range leaves {
			if n != 0 {
				tt[n] = cutVars[j]
			}
		}
		for j := len(cone) - 1; j >= 0; j-- {
			n := cone[j]
			tt[n] = edgeTT(out.fanin0[n]) & edgeTT(out.fanin1[n])
		}
		return edgeTT(x) == edgeTT(y)
	}

	// normEdge returns the polarity-normalized edge of a node (its first
	// pattern bit cleared): equivalence up to complement becomes plain
	// equality of normalized edges.
	normEdge := func(nd uint32) Lit {
		return MkLit(nd, keys.polarity(src[nd]))
	}
	// Candidate classes: each class's members form a linked list, in
	// enrollment order, over one flat slice, so enrolling a node costs
	// no allocation of its own. A class records its key and its first
	// and last member; slots is an open-addressed table of class
	// indices plus one (0 is empty), sized once for one class per input
	// node so that it stays at most half full and never rehashes. At
	// most one member and one class per input node are ever enrolled,
	// so members and classes are reserved once too.
	type member struct {
		lit  Lit
		next int32 // -1 ends the class
	}
	type class struct {
		key        [2]uint64
		head, tail int32
	}
	members := make([]member, 0, nodes)
	classes := make([]class, 0, nodes)
	slots := make([]int32, tableSize(2*nodes))
	slotMask := uint64(len(slots) - 1)
	// find returns the slot holding key's class, or the empty slot
	// where the probe for key ended.
	find := func(key [2]uint64) int {
		i := ((key[0] ^ key[1]*0x9e3779b97f4a7c15) >> 32) & slotMask
		for c := slots[i]; c != 0 && classes[c-1].key != key; c = slots[i] {
			i = (i + 1) & slotMask
		}
		return int(i)
	}
	classKey := func(nd uint32) [2]uint64 { return keys.classKey(src[nd]) }
	// join appends e to the class at slot, found for key, opening the
	// class if the slot is empty.
	join := func(slot int, key [2]uint64, e Lit) {
		m := int32(len(members))
		members = append(members, member{e, -1})
		if c := slots[slot]; c != 0 {
			members[classes[c-1].tail].next = m
			classes[c-1].tail = m
			return
		}
		classes = append(classes, class{key, m, m})
		slots[slot] = int32(len(classes))
	}
	enroll := func(nd uint32) {
		key := classKey(nd)
		join(find(key), key, normEdge(nd))
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
	// strash copies input node i into out over its fanins'
	// representatives.
	strash := func(i int) Lit {
		e0 := a.fanin0[uint32(i)]
		e1 := a.fanin1[uint32(i)]
		return out.And(repr[e0.Node()].NotIf(e0.Compl()), repr[e1.Node()].NotIf(e1.Compl()))
	}
	i := a.numPIs + 1
	for ; i < a.NumNodes() && !expired; i++ {
		if obsSpan != nil && i&0xfff == 0 && obsThr.Ok() {
			obsSpan.Gauge("fraig.swept", int64(i-a.numPIs))
			obsSpan.Gauge("fraig.merges", int64(stats.Merges))
		}
		e := strash(i)
		nd := e.Node()
		if int(nd) >= len(src) {
			// Fresh structural node, function-identical to input node i.
			src = append(src, uint32(i))
			me := normEdge(nd)
			key := classKey(nd)
			merged := false
			tried := 0
			slot := find(key)
			m := int32(-1)
			if c := slots[slot]; c != 0 {
				m = classes[c-1].head
			}
			for ; m >= 0; m = members[m].next {
				cand := members[m].lit
				if tried >= opt.MaxClassSize || pollCtx() {
					break
				}
				if !sameSig(sig, nodes, src, me, cand) {
					continue // separated by a refinement pattern
				}
				if merged = cutEqual(me, cand); merged {
					stats.CutMerges++
				} else {
					tried++
					merged = prove(me, cand)
				}
				if merged {
					// me ≡ cand, so node nd == cand adjusted for nd's
					// normalization polarity.
					e = cand.NotIf(me.Compl()).NotIf(e.Compl())
					stats.Merges++
					break
				}
			}
			if !merged {
				join(slot, key, me)
			}
		}
		repr[i] = e
	}
	// After an expiry the merges already made still reach the POs, so a
	// miter over the result keeps their structural matches; the budget
	// is spent, so the copy skips compaction and leaves dead nodes.
	for ; i < a.NumNodes(); i++ {
		repr[i] = strash(i)
	}
	for i := 0; i < a.NumPOs(); i++ {
		p := a.PO(i)
		out.AddPO(a.POName(i), repr[p.Node()].NotIf(p.Compl()))
	}
	res := out
	if !expired {
		res = Compact(out)
	}
	stats.NodesAfter = res.NumAnds()
	stats.Conflicts = solver.Stats.Conflicts
	stats.Decisions = solver.Stats.Decisions
	return res, stats
}

// sameSig reports whether new-AIG edges x and y agree on every
// refinement column of sig, n words each; src maps new-AIG nodes to the
// input nodes that index the columns.
func sameSig(sig []uint64, n int, src []uint32, x, y Lit) bool {
	nx, ny := int(src[x.Node()]), int(src[y.Node()])
	var flip uint64
	if x.Compl() != y.Compl() {
		flip = ^uint64(0)
	}
	for c := 0; c < len(sig); c += n {
		if sig[c+nx]^sig[c+ny] != flip {
			return false
		}
	}
	return true
}

// Compact copies the PO cones into a fresh structurally hashed AIG,
// dropping unreachable nodes.
func Compact(a *AIG) *AIG {
	out := New(a.PINames())
	out.Grow(a.NumAnds())
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
