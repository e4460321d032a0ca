package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"seqver"
	"seqver/internal/bench"
	"seqver/internal/netlist"
	"seqver/internal/retime"
	"seqver/internal/synth"
)

// Fault kinds planted on buggy_s3384 pairs. A dense fault XORs one
// output with a 3-input cube, so about one stage-1 simulation pattern in
// eight exposes it; a rare fault uses a 16-input cube, which the
// default 2048 random patterns almost never hit, so fraig and SAT must
// find the counterexample.
const (
	faultDense = "dense"
	faultRare  = "rare"

	denseCube = 3
	rareCube  = 16
)

// pair is one verification problem as the program sees it: two BLIF
// texts and the verdict they must produce.
type pair struct {
	name            string
	golden, revised string
	wantEquivalent  bool
	fault           string  // faultDense, faultRare, or "" for none
	synthS, retimeS float64 // set-up layer times, for the traced run
}

// The pairs form a fixed corpus: pair i of a workload is the same under
// every seed, planted fault included, and the seed draws only what a run
// does with the corpus (visit order, repeated submissions). One
// s3384-shaped circuit verifies in anywhere from 7 to 400 ms, so corpora
// drawn per seed spread 27% in median and 61% in p90 verdict time even
// at 96 pairs, and fault sites drawn per seed spread buggy_s3384's
// pairs_per_s twice as far as retimed_s3384's; see README.md.

// s3384Spec is the Table-1 s3384 shape: 183 latches, 39% of them on
// feedback.
func s3384Spec(i int) bench.Spec {
	return bench.Spec{Name: fmt.Sprintf("s3384-%d", i), Latches: 183, FeedbackFrac: 0.39}
}

// ex5Spec is the Table-2 ex5 shape: 672 load-enabled latches, 305 of
// them in FSM cores.
func ex5Spec(i int) bench.IndustrialSpec {
	return bench.IndustrialSpec{Name: fmt.Sprintf("ex5-%d", i),
		Latches: 672, FSMFrac: 305.0 / 672, MemFrac: 0.15}
}

// retimedPair builds the CBF-path pair: the prepared circuit B against
// its synthesized, min-period-retimed version C.
func retimedPair(i int) (pair, error) {
	sp := s3384Spec(i)
	prep, err := seqver.Prepare(bench.Generate(sp), seqver.PrepareOptions{})
	if err != nil {
		return pair{}, fmt.Errorf("%s: prepare: %w", sp.Name, err)
	}
	t0 := time.Now()
	syn, err := synth.Optimize(prep.Circuit, synth.DefaultScript())
	if err != nil {
		return pair{}, fmt.Errorf("%s: synth: %w", sp.Name, err)
	}
	t1 := time.Now()
	rt, err := retime.MinPeriod(syn)
	if err != nil {
		return pair{}, fmt.Errorf("%s: retime: %w", sp.Name, err)
	}
	t2 := time.Now()
	return pair{name: sp.Name, golden: blif(prep.Circuit), revised: blif(rt.Circuit),
		wantEquivalent: true, synthS: t1.Sub(t0).Seconds(), retimeS: t2.Sub(t1).Seconds()}, nil
}

// buggyPair is a retimed pair whose revised side carries one planted
// output fault.
func buggyPair(i int) (pair, error) {
	p, err := retimedPair(i)
	if err != nil {
		return pair{}, err
	}
	return withFault(p, i)
}

// withFault plants pair i's fault at a site drawn for that pair. Every
// third pair gets a dense fault, the others a rare one, so the median
// verdict time lies inside the rare-fault population rather than in the
// gap between the two kinds.
func withFault(p pair, i int) (pair, error) {
	kind, width := faultRare, rareCube
	if i%3 == 0 {
		kind, width = faultDense, denseCube
	}
	c, err := netlist.ParseBLIFString(p.revised)
	if err != nil {
		return pair{}, fmt.Errorf("%s: reparse: %w", p.name, err)
	}
	rng := rand.New(rand.NewSource(1_000_003 + int64(i)))
	if err := plantFault(c, rng, width); err != nil {
		return pair{}, fmt.Errorf("%s: plant fault: %w", p.name, err)
	}
	p.name += "-" + kind
	p.revised = blif(c)
	p.wantEquivalent = false
	p.fault = kind
	return p, nil
}

// plantFault XORs one primary output of c with a cube over width
// distinct primary inputs of random polarity: the output flips exactly
// on the input vectors the cube covers.
func plantFault(c *netlist.Circuit, rng *rand.Rand, width int) error {
	var pis []int
	for _, id := range c.Inputs {
		// Exposed latches became pseudo-inputs and pseudo-outputs;
		// the fault stays on the design's own ports (in*, out*).
		if n := c.Nodes[id].Name; len(n) > 2 && n[:2] == "in" {
			pis = append(pis, id)
		}
	}
	var outs []int
	for k, o := range c.Outputs {
		if len(o.Name) > 3 && o.Name[:3] == "out" {
			outs = append(outs, k)
		}
	}
	if len(pis) < width || len(outs) == 0 {
		return fmt.Errorf("need %d primary inputs and an output, have %d and %d",
			width, len(pis), len(outs))
	}
	lits := make([]int, width)
	for k, j := range rng.Perm(len(pis))[:width] {
		lits[k] = pis[j]
		if rng.Intn(2) == 0 {
			lits[k] = c.AddGate(fmt.Sprintf("fault$n%d", k), netlist.OpNot, pis[j])
		}
	}
	cube := c.AddGate("fault$cube", netlist.OpAnd, lits...)
	o := &c.Outputs[outs[rng.Intn(len(outs))]]
	if n := c.Nodes[o.Node]; n.Name == o.Name {
		// The output is its driver's own name; free it for the alias
		// that WriteBLIF emits once the output is redirected.
		n.Name += "$pre"
	}
	o.Node = c.AddGate("fault$x", netlist.OpXor, o.Node, cube)
	return c.Check()
}

// industrialPair builds the EDBF-path pair: an ex5-shaped circuit
// against its own synthesized version; preparation happens inside the
// timed verification, as seqver does without -acyclic.
func industrialPair(i int) (pair, error) {
	sp := ex5Spec(i)
	a := bench.GenerateIndustrial(sp)
	t0 := time.Now()
	syn, err := synth.Optimize(a, synth.DefaultScript())
	if err != nil {
		return pair{}, fmt.Errorf("%s: synth: %w", sp.Name, err)
	}
	return pair{name: sp.Name, golden: blif(a), revised: blif(syn),
		wantEquivalent: true, synthS: time.Since(t0).Seconds()}, nil
}

func blif(c *netlist.Circuit) string {
	var b bytes.Buffer
	if err := netlist.WriteBLIF(&b, c); err != nil {
		panic(err) // WriteBLIF fails only when its writer does
	}
	return b.String()
}
