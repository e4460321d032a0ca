package cec

import (
	"context"

	"seqver/internal/netlist"
)

// MiterHash returns the content address of a combinational comparison:
// the canonical structural hash (aig.StructuralHash) of the joint miter
// AIG that CheckCtx would decide. Two pairs get the same key exactly
// when they present the same verification problem — same output names,
// same input names in each cone's support, same cone structure — no
// matter how the source files ordered or named their internal signals.
//
// Because a decided verdict (Equivalent/Inequivalent) is a pure
// function of the miter — independent of engine, SAT mode, worker
// count, and budget — the hash is a sound cache key for decided
// results. Undecided verdicts are budget-dependent and must not be
// cached under it.
//
// The circuits must be latch-free with identical output name sets, the
// same contract as Check; building the joint AIG costs one structural
// traversal of both circuits (no simulation, no solving). A caller that
// also decides the pair builds the AIG once (NewMiterCtx) and uses
// Miter.Hash and Miter.CheckCtx.
func MiterHash(c1, c2 *netlist.Circuit) (string, error) {
	m, err := NewMiterCtx(context.Background(), c1, c2)
	if err != nil {
		return "", err
	}
	return m.Hash(), nil
}
