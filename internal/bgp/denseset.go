package bgp

import "math/bits"

// asBits is a bitset over dense AS indices (topo.Topology.ASIndex). It is
// the engine's dirty-set representation: membership tests and unions are
// word operations, iteration is in ascending index order (so every loop
// over a set is deterministic by construction, where the former map-based
// sets iterated in random order and relied on downstream sorts), and a
// whole set costs NumASes/8 bytes instead of a hash table.
type asBits struct {
	words []uint64
	count int
}

// newASBits returns an empty set over a universe of n indices.
func newASBits(n int) *asBits {
	return &asBits{words: make([]uint64, (n+63)/64)}
}

// add inserts index i.
func (b *asBits) add(i int) {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.count++
	}
}

// has reports membership of index i.
func (b *asBits) has(i int) bool {
	return b.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// len returns the number of set indices.
func (b *asBits) len() int { return b.count }

// or unions o into b. Both sets must share the same universe size.
func (b *asBits) or(o *asBits) {
	for i, w := range o.words {
		nw := b.words[i] | w
		b.count += bits.OnesCount64(nw ^ b.words[i])
		b.words[i] = nw
	}
}

// reset empties the set.
func (b *asBits) reset() {
	clear(b.words)
	b.count = 0
}

// clone returns an independent copy.
func (b *asBits) clone() *asBits {
	out := &asBits{words: make([]uint64, len(b.words)), count: b.count}
	copy(out.words, b.words)
	return out
}

// forEach calls fn for every set index in ascending order.
func (b *asBits) forEach(fn func(int)) {
	for w, word := range b.words {
		base := w << 6
		for word != 0 {
			fn(base + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
