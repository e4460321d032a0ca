package aig

// SimWordsK runs k-word parallel simulation (64*k patterns at once):
// piWords[i] holds k words for PI i. The result is node-major in one
// flat array, node n's words at [n*k, (n+1)*k). It is written into
// dst's storage when dst has the capacity, so a caller simulating
// round after round allocates once. It generalizes SimWords to wider
// rounds for the CEC stage-1 simulation.
func (a *AIG) SimWordsK(dst []uint64, piWords [][]uint64, k int) []uint64 {
	if len(piWords) != a.numPIs {
		panic("aig: wrong PI word count")
	}
	n := a.NumNodes()
	if cap(dst) < n*k {
		dst = make([]uint64, n*k)
	}
	w := dst[:n*k]
	clear(w[:k]) // constant node
	for i, ws := range piWords {
		if len(ws) != k {
			panic("aig: wrong word count per PI")
		}
		copy(w[(i+1)*k:(i+2)*k], ws)
	}
	for nd := a.numPIs + 1; nd < n; nd++ {
		f0, f1 := a.fanin0[nd], a.fanin1[nd]
		w0 := w[int(f0.Node())*k : int(f0.Node()+1)*k]
		w1 := w[int(f1.Node())*k : int(f1.Node()+1)*k]
		out := w[nd*k : (nd+1)*k]
		switch {
		case !f0.Compl() && !f1.Compl():
			for j := range out {
				out[j] = w0[j] & w1[j]
			}
		case f0.Compl() && !f1.Compl():
			for j := range out {
				out[j] = ^w0[j] & w1[j]
			}
		case !f0.Compl() && f1.Compl():
			for j := range out {
				out[j] = w0[j] & ^w1[j]
			}
		default:
			for j := range out {
				out[j] = ^(w0[j] | w1[j])
			}
		}
	}
	return w
}
