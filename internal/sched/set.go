package sched

import "math/bits"

// Set is a bitset over component indices: the hierarchy's Hot L1s and
// L2 banks, the NoC's non-empty injection ports. Walking it with Next
// visits only members, in ascending index order, so a per-cycle
// dispatch costs what acts instead of the component count.
type Set []uint64

// NewSet returns an empty set over indices [0, n).
func NewSet(n int) Set { return make(Set, (n+63)/64) }

// Add inserts i.
func (s Set) Add(i int) { s[i>>6] |= 1 << (i & 63) }

// Remove deletes i.
func (s Set) Remove(i int) { s[i>>6] &^= 1 << (i & 63) }

// Next returns the smallest member >= i, or -1 when there is none. It
// reads the set afresh on every call, so a walk
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1)
//
// sees members added or removed behind and ahead of it as it goes,
// exactly as a scan testing each index in turn would.
func (s Set) Next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	if m := s[w] &^ (1<<(i&63) - 1); m != 0 {
		return w<<6 | bits.TrailingZeros64(m)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 | bits.TrailingZeros64(s[w])
		}
	}
	return -1
}
