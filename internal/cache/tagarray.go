// Package cache provides the generic storage structures shared by
// every cache controller in the simulator: a set-associative tag/data
// array with pluggable per-line protocol metadata, LRU replacement
// with victim filtering (needed by TC's inclusive L2, which may only
// evict expired lines), and an MSHR table with request merging.
package cache

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// Line is one cache line: the tag state owned by this package plus a
// protocol-defined metadata payload M (timestamps, lease expiry, lock
// bits, ...).
type Line[M any] struct {
	Valid   bool
	Addr    mem.BlockAddr
	Dirty   bool
	LastUse uint64 // for LRU
	Data    mem.Block
	Meta    M
}

// Array is a set-associative cache array. Each set's ways are
// allocated when the set first receives a line: an L2 bank selected by
// the low block-address bits only ever indexes the sets those bits
// allow (one in NumBanks), so most of a bank's rows would otherwise be
// allocated, zeroed and never used.
type Array[M any] struct {
	sets int
	ways int
	rows [][]Line[M] // per set, nil until the set's first Victim
}

// NewArray builds an array with the given geometry. Sets must be a
// power of two.
func NewArray[M any](sets, ways int) *Array[M] {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets must be a positive power of two, got %d", sets))
	}
	if ways <= 0 {
		panic("cache: ways must be positive")
	}
	return &Array[M]{sets: sets, ways: ways, rows: make([][]Line[M], sets)}
}

// Geometry returns (sets, ways).
func (a *Array[M]) Geometry() (sets, ways int) { return a.sets, a.ways }

// SetIndex returns the set an address maps to.
func (a *Array[M]) SetIndex(b mem.BlockAddr) int { return int(uint64(b) & uint64(a.sets-1)) }

// Lookup returns the line holding block b, or nil on a tag miss. It
// does not touch LRU state; callers use Touch on a hit they consume.
func (a *Array[M]) Lookup(b mem.BlockAddr) *Line[M] {
	row := a.rows[a.SetIndex(b)]
	for i := range row {
		l := &row[i]
		if l.Valid && l.Addr == b {
			return l
		}
	}
	return nil
}

// Touch marks the line most-recently-used at time now.
func (a *Array[M]) Touch(l *Line[M], now uint64) { l.LastUse = now }

// Victim selects the line block b would replace: an invalid way if one
// exists, otherwise the least-recently-used line for which evictable
// returns true (evictable == nil accepts any line). It returns nil if
// every valid candidate is pinned — the replacement stall case of TC's
// inclusive L2.
func (a *Array[M]) Victim(b mem.BlockAddr, evictable func(*Line[M]) bool) *Line[M] {
	set := a.SetIndex(b)
	row := a.rows[set]
	if row == nil {
		row = make([]Line[M], a.ways)
		a.rows[set] = row
	}
	var lru *Line[M]
	for i := range row {
		l := &row[i]
		if !l.Valid {
			return l
		}
		if evictable != nil && !evictable(l) {
			continue
		}
		if lru == nil || l.LastUse < lru.LastUse {
			lru = l
		}
	}
	return lru
}

// Install places block b in line l with the given data, resetting the
// line's dirty bit and metadata to the zero value; the caller fills
// protocol metadata afterwards.
func (a *Array[M]) Install(l *Line[M], b mem.BlockAddr, data *mem.Block, now uint64) {
	var zero M
	l.Valid = true
	l.Addr = b
	l.Dirty = false
	l.LastUse = now
	l.Meta = zero
	if data != nil {
		l.Data = *data
	} else {
		l.Data = mem.Block{}
	}
}

// Invalidate clears the line.
func (a *Array[M]) Invalidate(l *Line[M]) {
	var zero M
	l.Valid = false
	l.Dirty = false
	l.Meta = zero
}

// ForEach calls fn on every valid line; fn may mutate the line.
// Used by flushes and by TC/G-TSC bulk operations (kernel-boundary
// flush, timestamp reset).
func (a *Array[M]) ForEach(fn func(*Line[M])) {
	for _, row := range a.rows {
		for i := range row {
			if row[i].Valid {
				fn(&row[i])
			}
		}
	}
}

// CountValid returns the number of valid lines (test/debug helper).
func (a *Array[M]) CountValid() int {
	n := 0
	a.ForEach(func(*Line[M]) { n++ })
	return n
}
