package aig

// SimWordsK runs k-word parallel simulation (64*k patterns at once):
// piWords[i] holds k words for PI i, and the result holds k words per
// node (node-major, backed by one contiguous array). It generalizes
// SimWords to wider rounds for the CEC stage-1 simulation.
func (a *AIG) SimWordsK(piWords [][]uint64, k int) [][]uint64 {
	if len(piWords) != a.numPIs {
		panic("aig: wrong PI word count")
	}
	n := a.NumNodes()
	backing := make([]uint64, n*k)
	w := make([][]uint64, n)
	for i := range w {
		w[i] = backing[i*k : (i+1)*k : (i+1)*k]
	}
	for i, ws := range piWords {
		if len(ws) != k {
			panic("aig: wrong word count per PI")
		}
		copy(w[i+1], ws)
	}
	for nd := uint32(a.numPIs + 1); nd < uint32(n); nd++ {
		f0, f1 := a.fanin0[nd], a.fanin1[nd]
		w0, w1 := w[f0.Node()], w[f1.Node()]
		dst := w[nd]
		switch {
		case !f0.Compl() && !f1.Compl():
			for j := 0; j < k; j++ {
				dst[j] = w0[j] & w1[j]
			}
		case f0.Compl() && !f1.Compl():
			for j := 0; j < k; j++ {
				dst[j] = ^w0[j] & w1[j]
			}
		case !f0.Compl() && f1.Compl():
			for j := 0; j < k; j++ {
				dst[j] = w0[j] & ^w1[j]
			}
		default:
			for j := 0; j < k; j++ {
				dst[j] = ^(w0[j] | w1[j])
			}
		}
	}
	return w
}
