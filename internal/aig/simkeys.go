package aig

import "math/bits"

// SimKeys folds random-simulation words into one 128-bit class key per
// node, so a caller that has simulated an AIG can hand fraig its
// candidate classes without keeping the words.
//
// Global pattern word g of a node enters lane 0 as m0(g)·w and lane 1
// as m1(g)·rotl(w, 32), summed mod 2^64, where m0(g) and m1(g) are odd
// multipliers drawn from g by the splitmix64 finalizer. Two nodes share
// a key when their words are equal; nodes whose words differ collide
// only when both sums cancel, and the rotation keeps a difference in
// the high half of a word from cancelling in both lanes at once. The
// sums are order-free, so keys folded round by round on separate
// SimKeys and then merged equal keys folded in one pass.
//
// The fold is linear and rotation commutes with complement, so the key
// of a node's complemented words needs no second fold: it is
// -sum(m)-key in each lane. A node's polarity is bit 0 of its global
// word 0; a node whose polarity is set takes the key of its
// complemented words as its class key, so a node and its complement
// share a class.
type SimKeys struct {
	key    [][2]uint64
	pol    []uint64  // bit n: node n's polarity
	mulSum [2]uint64 // sum of the multipliers folded in, per lane
	words  int       // pattern words folded per node
}

// NewSimKeys returns empty keys for an AIG of n nodes.
func NewSimKeys(n int) *SimKeys {
	return &SimKeys{key: make([][2]uint64, n), pol: make([]uint64, (n+63)/64)}
}

// keyMul is lane's odd multiplier for global pattern word g.
func keyMul(g, lane int) uint64 {
	return mix64(uint64(2*g+lane)+0x9e3779b97f4a7c15) | 1
}

// Fold folds one simulation round into the keys: w holds k words per
// node in SimWordsK's layout, and its words are global pattern words
// first to first+k-1.
func (s *SimKeys) Fold(w []uint64, k, first int) {
	mul := make([]uint64, 2*k)
	m0, m1 := mul[:k], mul[k:]
	for j := range m0 {
		m0[j], m1[j] = keyMul(first+j, 0), keyMul(first+j, 1)
		s.mulSum[0] += m0[j]
		s.mulSum[1] += m1[j]
	}
	w = w[:len(s.key)*k]
	for nd := range s.key {
		ws := w[nd*k : (nd+1)*k : (nd+1)*k]
		var l0, l1 uint64
		for j, x := range ws {
			l0 += m0[j] * x
			l1 += m1[j] * bits.RotateLeft64(x, 32)
		}
		s.key[nd][0] += l0
		s.key[nd][1] += l1
		if first == 0 {
			s.pol[nd>>6] |= (ws[0] & 1) << (nd & 63)
		}
	}
	s.words += k
}

// Merge adds o, folded from other pattern words of the same AIG, into
// s.
func (s *SimKeys) Merge(o *SimKeys) {
	for i, k := range o.key {
		s.key[i][0] += k[0]
		s.key[i][1] += k[1]
	}
	for i, p := range o.pol {
		s.pol[i] |= p
	}
	s.mulSum[0] += o.mulSum[0]
	s.mulSum[1] += o.mulSum[1]
	s.words += o.words
}

// Words returns the number of pattern words folded into each key.
func (s *SimKeys) Words() int { return s.words }

// polarity reports node n's polarity: bit 0 of its global word 0.
func (s *SimKeys) polarity(n uint32) bool { return s.pol[n>>6]>>(n&63)&1 == 1 }

// classKey returns node n's class key, which its complement shares.
func (s *SimKeys) classKey(n uint32) [2]uint64 {
	k := s.key[n]
	if s.polarity(n) {
		k[0], k[1] = -s.mulSum[0]-k[0], -s.mulSum[1]-k[1]
	}
	return k
}
