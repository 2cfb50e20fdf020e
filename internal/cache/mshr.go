package cache

import "github.com/gtsc-sim/gtsc/internal/mem"

// MSHR is a miss-status holding register table. It tracks outstanding
// misses by block address and merges subsequent requests to the same
// block into the existing entry — the request-combining behaviour
// Section V-B of the paper analyzes. The waiter payload W is defined
// by each protocol (it typically carries the warp, its timestamp and
// the completion callback).
type MSHR[W any] struct {
	entries mem.Table[mem.BlockAddr, *MSHREntry[W]]
	max     int
	// free recycles released entries together with their waiter
	// slices, whose capacity is the expensive part: the steady-state
	// miss path then allocates nothing. Bounded by max, since at most
	// max entries can ever be live.
	free []*MSHREntry[W]
}

// MSHREntry tracks one outstanding block miss and the requests merged
// into it.
type MSHREntry[W any] struct {
	Block   mem.BlockAddr
	Waiters []W
	// Issued reports whether a request for this block is in flight to
	// L2 (set on first send; renewals re-set it).
	Issued bool
	// InFlight counts outstanding read/renewal requests for this block
	// (used by controllers that must know exactly, e.g. G-TSC, where a
	// response can arrive while the line is locked and a later event
	// must decide whether to re-request).
	InFlight int
	// ReqID correlates the in-flight request with its response.
	ReqID uint64
}

// NewMSHR builds a table with capacity max entries (GPGPU-Sim default
// is 32 per L1).
func NewMSHR[W any](max int) *MSHR[W] {
	return &MSHR[W]{max: max}
}

// Lookup returns the entry for block b, or nil.
func (m *MSHR[W]) Lookup(b mem.BlockAddr) *MSHREntry[W] {
	e, _ := m.entries.Get(b)
	return e
}

// Full reports whether no new entry can be allocated.
func (m *MSHR[W]) Full() bool { return m.entries.Len() >= m.max }

// Allocate creates an entry for block b. The caller must have checked
// Full and Lookup first; allocating a duplicate or overflowing returns
// nil, which the controller reports as a protocol error.
func (m *MSHR[W]) Allocate(b mem.BlockAddr) *MSHREntry[W] {
	if m.Full() {
		return nil
	}
	if _, ok := m.entries.Get(b); ok {
		return nil
	}
	var e *MSHREntry[W]
	if n := len(m.free); n > 0 {
		e = m.free[n-1]
		m.free[n-1] = nil
		m.free = m.free[:n-1]
		e.Block = b
	} else {
		e = &MSHREntry[W]{Block: b}
	}
	m.entries.Put(b, e)
	return e
}

// Release frees the entry for block b and recycles it. The entry's
// waiter payloads are cleared so a parked completion callback is never
// pinned past its release.
func (m *MSHR[W]) Release(b mem.BlockAddr) {
	e, ok := m.entries.Delete(b)
	if !ok {
		return
	}
	clear(e.Waiters)
	e.Waiters = e.Waiters[:0]
	e.Issued = false
	e.InFlight = 0
	e.ReqID = 0
	m.free = append(m.free, e)
}

// Len returns the number of live entries.
func (m *MSHR[W]) Len() int { return m.entries.Len() }

// Cap returns the table capacity.
func (m *MSHR[W]) Cap() int { return m.max }

// ForEach visits every live entry in ascending block order, so
// diagnostics built from it are byte-stable across runs.
func (m *MSHR[W]) ForEach(fn func(*MSHREntry[W])) {
	for _, b := range m.entries.Keys() {
		e, _ := m.entries.Get(b)
		fn(e)
	}
}
