// Package edbf implements Event-Driven Boolean Functions (Sections 4.2
// and 5.2 of Ranjan et al.): the combinational representation of acyclic
// sequential circuits with load-enabled latches.
//
// An event is the ordered sequence of enable predicates a value crosses
// on its way from a primary input to an output, each annotated with its
// latch offset from the output (the paper writes these as timed Boolean
// predicates, e.g. η[a(τ), a(τ-1)b(τ-1)]). Instantiating one fresh
// Boolean variable per (primary input, event) pair yields a combinational
// circuit; by Theorem 5.2 equality of these circuits is equivalent to
// sequential equivalence for circuits related by retiming and
// combinational synthesis (Lemma 5.2 makes the event sequences
// invariant), and a conservative sufficient check otherwise.
//
// Enable predicates are canonicalized as BDDs over the primary inputs (a
// shared Ctx aligns predicate and event identities across the two
// circuits under comparison), so synthesis rewriting an enable cone does
// not perturb the event. The paper's rewrite rule (Eq. 5) —
// η[p(τ), q(τ-1)] = η[q(τ-1)] when p ≥ q — is available behind the
// Rewrite flag; it removes the Figure-10 class of false negatives and is
// part of the paper's (syntactic, conservative) calculus rather than a
// hardware-exact transformation.
package edbf

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"seqver/internal/bdd"
	"seqver/internal/cbf"
	"seqver/internal/netlist"
	"seqver/internal/obs"
	"seqver/internal/unroll"
)

// Element is one event constituent: an enable predicate (by canonical id)
// at a latch offset Delta from the observed output (the outermost enabled
// latch has Delta 0; the paper writes p(τ-Delta)).
type Element struct {
	Pred  int
	Delta int
}

// Event is a canonical event: elements sorted by ascending Delta, plus
// the total latch depth crossed (regular latches contribute depth but no
// element).
type Event struct {
	Elems []Element
	Depth int
}

// appendKey appends the event's interning key to b.
func (e Event) appendKey(b []byte) []byte {
	for _, el := range e.Elems {
		b = append(b, 'p')
		b = strconv.AppendInt(b, int64(el.Pred), 10)
		b = append(b, 'd')
		b = strconv.AppendInt(b, int64(el.Delta), 10)
		b = append(b, ';')
	}
	b = append(b, '|')
	return strconv.AppendInt(b, int64(e.Depth), 10)
}

// Ctx holds the shared predicate and event tables. Both circuits of a
// comparison must be unrolled through the same Ctx so that variable names
// align.
type Ctx struct {
	m       *bdd.Manager
	varOf   map[string]int // primary input name -> BDD variable
	predID  map[bdd.Ref]int
	preds   []bdd.Ref
	eventID map[string]int
	events  []Event
	keyBuf  []byte // scratch for internEvent's key

	// Rewrite enables the paper's Eq. 5 event rewriting:
	// η[p(τ-k), q(τ-k-1)] = η[q(τ-k-1)] when q implies p.
	Rewrite bool
}

// NewCtx returns an empty shared context.
func NewCtx() *Ctx {
	return &Ctx{
		m:       bdd.New(0),
		varOf:   make(map[string]int),
		predID:  make(map[bdd.Ref]int),
		eventID: make(map[string]int),
	}
}

func (cx *Ctx) inputVar(name string) int {
	v, ok := cx.varOf[name]
	if !ok {
		v = cx.m.AddVar()
		cx.varOf[name] = v
	}
	return v
}

func (cx *Ctx) internPred(f bdd.Ref) int {
	if id, ok := cx.predID[f]; ok {
		return id
	}
	id := len(cx.preds)
	cx.preds = append(cx.preds, f)
	cx.predID[f] = id
	return id
}

// internEvent returns e's id, interning it on first sight. e.Elems may
// be a scratch buffer: a new event keeps a copy of it.
func (cx *Ctx) internEvent(e Event) int {
	cx.keyBuf = e.appendKey(cx.keyBuf[:0])
	if id, ok := cx.eventID[string(cx.keyBuf)]; ok {
		return id
	}
	id := len(cx.events)
	e.Elems = slices.Clone(e.Elems)
	cx.events = append(cx.events, e)
	cx.eventID[string(cx.keyBuf)] = id
	return id
}

// NumEvents returns how many distinct events have been interned.
func (cx *Ctx) NumEvents() int { return len(cx.events) }

// EventString renders event id for diagnostics, e.g. "[p0@0 p1@1]|d2".
func (cx *Ctx) EventString(id int) string {
	e := cx.events[id]
	var sb strings.Builder
	sb.WriteByte('[')
	for i, el := range e.Elems {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "p%d@%d", el.Pred, el.Delta)
	}
	fmt.Fprintf(&sb, "]|d%d", e.Depth)
	return sb.String()
}

// canon sorts elements by delta and applies the optional Eq. 5 rewrite.
func (cx *Ctx) canon(e Event) Event {
	slices.SortStableFunc(e.Elems, func(a, b Element) int { return cmp.Compare(a.Delta, b.Delta) })
	if !cx.Rewrite {
		return e
	}
	// η[p(τ-k), q(τ-k-1)] = η[q(τ-k-1)] if q ⟹ p, applied to adjacent
	// (delta, delta+1) pairs until fixpoint.
	changed := true
	for changed {
		changed = false
		for i := 0; i+1 < len(e.Elems); i++ {
			p, q := e.Elems[i], e.Elems[i+1]
			if q.Delta == p.Delta+1 && cx.m.Leq(cx.preds[q.Pred], cx.preds[p.Pred]) {
				e.Elems = append(e.Elems[:i], e.Elems[i+1:]...)
				changed = true
				break
			}
		}
	}
	return e
}

// ParseVarName splits an unrolled input name into (base, event id).
func ParseVarName(v string) (string, int, error) {
	i := strings.LastIndexByte(v, '#')
	if i < 0 {
		return "", 0, fmt.Errorf("edbf: %q is not an event-variable name", v)
	}
	ev, err := strconv.Atoi(v[i+1:])
	if err != nil {
		return "", 0, err
	}
	return v[:i], ev, nil
}

// predicateOf computes the canonical function of an enable signal as a
// BDD over primary inputs. The enable cone must be purely combinational
// over primary inputs (no latches) — the circuit class the paper's
// experimental setup targets; richer enables should be exposed first.
func (cx *Ctx) predicateOf(c *netlist.Circuit, enable int, memo []bdd.Ref, done []bool) (bdd.Ref, error) {
	var rec func(id int) (bdd.Ref, error)
	rec = func(id int) (bdd.Ref, error) {
		if done[id] {
			return memo[id], nil
		}
		n := c.Nodes[id]
		var f bdd.Ref
		switch n.Kind {
		case netlist.KindInput:
			f = cx.m.Var(cx.inputVar(n.Name))
		case netlist.KindLatch:
			return bdd.False, fmt.Errorf("edbf: enable cone of %q passes through latch %q; expose it first", c.Name, n.Name)
		case netlist.KindGate:
			fins := make([]bdd.Ref, len(n.Fanins))
			for i, fid := range n.Fanins {
				var err error
				if fins[i], err = rec(fid); err != nil {
					return bdd.False, err
				}
			}
			f = bdd.Gate(cx.m, n, fins)
		}
		memo[id], done[id] = f, true
		return f, nil
	}
	return rec(enable)
}

// Unroll computes the EDBF of every primary output of c (the Figure 8
// recursion) and materializes it as a combinational circuit whose primary
// inputs are (input, event) variables named "a#ev". The circuit
// must be acyclic; both regular and load-enabled latches are supported
// (regular latches degrade to pure delays, so on a regular-latch circuit
// the EDBF coincides with the CBF up to variable naming).
func (cx *Ctx) Unroll(c *netlist.Circuit) (*netlist.Circuit, error) {
	return cx.UnrollCtx(context.Background(), c)
}

// UnrollCtx is Unroll under the context's tracer: an "edbf.unroll" span
// counts the unrolled and source gates and the distinct events this
// call interned in the shared context (the Section 5.2 blow-up metric),
// so the counts of the spans sharing cx sum to cx.NumEvents().
func (cx *Ctx) UnrollCtx(ctx context.Context, c *netlist.Circuit) (*netlist.Circuit, error) {
	_, sp := obs.Start1(ctx, "edbf.unroll", obs.S("circuit", c.Name))
	defer sp.End()
	r, err := cx.recordSpan(sp, c)
	if err != nil {
		return nil, err
	}
	out, err := r.Circuit(c.Name + "_edbf")
	if err != nil {
		return nil, fmt.Errorf("edbf: %w", err)
	}
	return out, nil
}

// RecordCtx is UnrollCtx without the netlist: it returns the
// unrolling's record, which the checker builds straight into its joint
// AIG. The "edbf.unroll" span and its counts are UnrollCtx's.
func (cx *Ctx) RecordCtx(ctx context.Context, c *netlist.Circuit) (*unroll.Record, error) {
	_, sp := obs.Start1(ctx, "edbf.unroll", obs.S("circuit", c.Name))
	defer sp.End()
	return cx.recordSpan(sp, c)
}

// recordSpan records c's unrolling and counts it on sp.
func (cx *Ctx) recordSpan(sp *obs.Span, c *netlist.Circuit) (*unroll.Record, error) {
	events := cx.NumEvents()
	r, err := cx.record(c)
	if sp != nil && err == nil {
		sp.Count("edbf.gates", int64(r.NumGates()))
		sp.Count("edbf.source_gates", int64(c.NumGates()))
		sp.Count("edbf.events", int64(cx.NumEvents()-events))
	}
	return r, err
}

// record runs the Figure 8 recursion from every output, recording one
// instance per (gate, event) and (input, event) pair it reaches, and a
// free variable per (never-loading latch, event).
func (cx *Ctx) record(c *netlist.Circuit) (*unroll.Record, error) {
	if err := cbf.CheckAcyclic(c); err != nil {
		return nil, fmt.Errorf("edbf: %w", err)
	}
	r := unroll.New(c, '#')

	predMemo := make([]bdd.Ref, len(c.Nodes))
	predDone := make([]bool, len(c.Nodes))
	// The memo maps (node, event) to the instance. A node is visited
	// under few of the context's events, so rather than one dense row
	// per event it keeps, per node, a chain of (event, instance)
	// entries in one arena: head[id] is the newest entry of node id,
	// plus one (0: none).
	type memoEntry struct {
		ev, inst, next int32
	}
	head := make([]int32, len(c.Nodes))
	entries := make([]memoEntry, 0, len(c.Nodes))
	store := func(id, ev int, i int32) {
		entries = append(entries, memoEntry{int32(ev), i, head[id]})
		head[id] = int32(len(entries))
	}
	// fins holds the fanins of the gates being recorded (see
	// cbf.record); elems is the scratch event a latch crossing builds.
	var fins []int32
	var elems []Element

	var rec func(id int, ev int) (int32, error)
	rec = func(id int, ev int) (int32, error) {
		for e := head[id]; e != 0; e = entries[e-1].next {
			if int(entries[e-1].ev) == ev {
				return entries[e-1].inst, nil
			}
		}
		n := c.Nodes[id]
		var i int32
		switch n.Kind {
		case netlist.KindInput:
			i = r.Input(id, ev)
		case netlist.KindLatch:
			e := cx.events[ev]
			elems = append(elems[:0], e.Elems...)
			if n.Enable != netlist.NoEnable {
				pred, err := cx.predicateOf(c, n.Enable, predMemo, predDone)
				if err != nil {
					return 0, err
				}
				switch pred {
				case bdd.True:
					// Degenerate enable: a regular latch.
				case bdd.False:
					// The latch never loads: its value is the power-up
					// nondeterminate, a fresh free variable.
					i = r.Undef(id, ev)
					store(id, ev, i)
					return i, nil
				default:
					elems = append(elems, Element{Pred: cx.internPred(pred), Delta: e.Depth})
				}
			}
			nextID := cx.internEvent(cx.canon(Event{Elems: elems, Depth: e.Depth + 1}))
			var err error
			if i, err = rec(n.Data(), nextID); err != nil {
				return 0, err
			}
		case netlist.KindGate:
			base := len(fins)
			fins = slices.Grow(fins, len(n.Fanins))[:base+len(n.Fanins)]
			for j, f := range n.Fanins {
				fj, err := rec(f, ev)
				if err != nil {
					return 0, err
				}
				fins[base+j] = fj
			}
			i = r.Gate(id, ev, fins[base:])
			fins = fins[:base]
		}
		store(id, ev, i)
		return i, nil
	}

	empty := cx.internEvent(Event{})
	for _, o := range c.Outputs {
		i, err := rec(o.Node, empty)
		if err != nil {
			return nil, err
		}
		r.Output(i)
	}
	return r, nil
}
