package mem

import (
	"math/bits"
	"slices"
)

// Table is a hash table keyed by a 64-bit integer (a block address or
// a request ID): the controllers keep their transient per-access state
// in it (outstanding misses, acks and pending stores, blocked queues,
// directory transactions). Its entries sit in one flat array of slots,
// a power of two long and at most 3/4 full, probed linearly from a
// multiplicative hash of the key, so a lookup reads a short run of
// adjacent slots and allocates nothing. Delete shifts the rest of its
// probe run back into the hole instead of leaving a tombstone, so a
// table that churns through keys stays as short to probe as a fresh
// one. The zero value is an empty table ready to use; a table must not
// be copied once used, since the copy would share its slots.
//
// Each visits entries in slot order, which depends on the table's
// history; use it only where order cannot matter (sums, counts,
// clearing a flag on every entry). Keys is the ordered view.
type Table[K ~uint64, V any] struct {
	slots []slot[K, V]
	n     int
	shift uint // 64 - log2(len(slots)): hash bits kept for a slot index
}

type slot[K ~uint64, V any] struct {
	key  K
	used bool
	val  V
}

const (
	tableMinSlots = 8
	hashMul       = 0x9e3779b97f4a7c15 // 2^64 / golden ratio (Fibonacci hashing)
)

// home returns the slot a probe for k starts at.
func (t *Table[K, V]) home(k K) int { return int(uint64(k) * hashMul >> t.shift) }

// find returns the index of k's slot, or -1 when k is absent.
func (t *Table[K, V]) find(k K) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.used {
			return -1
		}
		if s.key == k {
			return i
		}
	}
}

// Len returns the number of entries.
func (t *Table[K, V]) Len() int { return t.n }

// Get returns k's value and whether k is present.
func (t *Table[K, V]) Get(k K) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].val, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is present.
func (t *Table[K, V]) Has(k K) bool { return t.find(k) >= 0 }

// Put sets k's value, adding k when absent.
func (t *Table[K, V]) Put(k K, v V) {
	if len(t.slots) > 0 {
		mask := len(t.slots) - 1
		i := t.home(k)
		for ; t.slots[i].used; i = (i + 1) & mask {
			if t.slots[i].key == k {
				t.slots[i].val = v
				return
			}
		}
		if 4*(t.n+1) <= 3*len(t.slots) {
			t.slots[i] = slot[K, V]{key: k, used: true, val: v}
			t.n++
			return
		}
	}
	t.grow()
	t.insert(k, v)
}

// insert places absent key k in the first free slot of its probe run.
func (t *Table[K, V]) insert(k K, v V) {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].used {
		i = (i + 1) & mask
	}
	t.slots[i] = slot[K, V]{key: k, used: true, val: v}
	t.n++
}

// grow doubles the slot array and reinserts every entry.
func (t *Table[K, V]) grow() {
	old := t.slots
	size := max(2*len(old), tableMinSlots)
	t.slots = make([]slot[K, V], size)
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	t.n = 0
	for i := range old {
		if old[i].used {
			t.insert(old[i].key, old[i].val)
		}
	}
}

// Delete removes k and returns the value it held and whether it was
// present.
func (t *Table[K, V]) Delete(k K) (V, bool) {
	i := t.find(k)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := t.slots[i].val
	mask := len(t.slots) - 1
	// Backward shift: each later entry of the probe run whose home is
	// not cyclically inside (hole, its slot] moves into the hole, so
	// every remaining key stays reachable from its home.
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].key))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot[K, V]{}
	t.n--
	return v, true
}

// Clear removes every entry, keeping the slots for reuse.
func (t *Table[K, V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// Each calls f on every entry in an unspecified order; see Table. f
// must not Put or Delete.
func (t *Table[K, V]) Each(f func(K, V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			f(s.key, s.val)
		}
	}
}

// Keys returns the table's keys in ascending order.
func (t *Table[K, V]) Keys() []K {
	keys := make([]K, 0, t.n)
	for i := range t.slots {
		if t.slots[i].used {
			keys = append(keys, t.slots[i].key)
		}
	}
	slices.Sort(keys)
	return keys
}
