// Package sched provides the shared event agenda behind the
// simulator's scheduled-wake engine.
//
// The agenda inverts the per-cycle timing contract. Instead of the engine
// probing every component every cycle ("tick me, I'll tell you if it
// mattered"), each component owns a slot and registers the next cycle
// at which ticking it could matter ("I'll tell you when to tick me").
// The engine asks Horizon(now) for the earliest such cycle and advances
// time directly to it.
//
// A slot's wake value is one of three classes:
//
//   - Hot: the component must be ticked every cycle (it is actively
//     doing work, or cannot bound its next state change). Any Hot slot
//     pins the horizon to now+1.
//   - Never: the component will not act again until some external input
//     arrives (at which point whoever delivered the input reschedules
//     it). Never slots are invisible to the horizon.
//   - A concrete future cycle c: the component is provably inert until
//     c (a port finishes serializing, a DRAM fill lands, a warp's
//     busy-until expires).
//
// Only concrete future cycles enter the min-heap, which is keyed by
// (cycle, slot index) so that ties resolve in canonical component
// order and the agenda is deterministic regardless of insertion order.
// The heap is indexed: a slot has at most one entry, which a
// reschedule moves in place and a Hot or Never transition removes, so
// the heap never holds more entries than slots and Horizon reads its
// top without discarding anything.
//
// Note the horizon only bounds how far time may jump; on every executed
// cycle the engine still dispatches components in their fixed canonical
// order (see DESIGN.md §7), so the agenda never influences intra-cycle
// ordering — only which cycles execute at all.
package sched

// Never is the sentinel wake cycle for "no scheduled work": the
// component is inert until an external input reschedules it. It is
// shared by every component package (noc, dram, memsys) as the
// NextEvent horizon sentinel too.
const Never = ^uint64(0)

// Hot marks a slot that must be ticked every cycle. The zero value is
// safe as a sentinel because real wake cycles are always strictly in
// the future (>= now+1 >= 1).
const Hot = uint64(0)

// entry is a slot's concrete wake (cycle, slot) in the min-heap;
// at always equals wake[idx].
type entry struct {
	at  uint64
	idx int
}

// notQueued is pos's value for a slot with no heap entry.
const notQueued = -1

// Agenda is a deterministic wake-up agenda over a fixed set of slots.
// It is not safe for concurrent use; the engine drives it from the
// serial section of the cycle loop.
type Agenda struct {
	wake []uint64 // authoritative wake per slot: Hot, Never, or a future cycle
	pos  []int    // heap index of each slot's entry, or notQueued
	heap []entry  // min-heap on (at, idx), one entry per concrete wake
	hot  int      // number of slots currently Hot
}

// NewAgenda returns an empty agenda with room for slots AddSlot calls
// before its per-slot slices grow; add slots with AddSlot.
func NewAgenda(slots int) *Agenda {
	return &Agenda{wake: make([]uint64, 0, slots), pos: make([]int, 0, slots)}
}

// AddSlot registers a new component slot and returns its index. Slots
// are allocated in canonical component order once at machine
// construction; the index doubles as the deterministic tiebreak for
// same-cycle events. New slots start at Never.
func (a *Agenda) AddSlot() int {
	a.wake = append(a.wake, Never)
	a.pos = append(a.pos, notQueued)
	return len(a.wake) - 1
}

// Slots returns the number of registered slots.
func (a *Agenda) Slots() int { return len(a.wake) }

// Wake returns the current wake value of a slot (Hot, Never, or a
// concrete cycle).
func (a *Agenda) Wake(idx int) uint64 { return a.wake[idx] }

// Schedule sets a slot's wake to at (Hot, Never, or a concrete future
// cycle). Rescheduling to the current value is a no-op, so callers may
// re-register unconditionally on every state change. The slot's heap
// entry follows: a concrete wake inserts or moves it, Hot or Never
// removes it.
func (a *Agenda) Schedule(idx int, at uint64) {
	old := a.wake[idx]
	if old == at {
		return
	}
	if old == Hot {
		a.hot--
	}
	if at == Hot {
		a.hot++
	}
	a.wake[idx] = at
	switch i := a.pos[idx]; {
	case at == Hot || at == Never:
		if i != notQueued {
			a.remove(i)
		}
	case i == notQueued:
		a.pos[idx] = len(a.heap)
		a.heap = append(a.heap, entry{at: at, idx: idx})
		a.fix(len(a.heap) - 1)
	default:
		a.heap[i].at = at
		a.fix(i)
	}
}

// Horizon returns the earliest cycle at which any slot needs to run,
// relative to the current cycle now:
//
//   - now+1 if any slot is Hot (no skipping possible), or if a concrete
//     wake is already due (defensive: the engine should have executed
//     it, but an overdue wake must never be jumped past);
//   - the smallest concrete future wake otherwise;
//   - Never if every slot is inert.
func (a *Agenda) Horizon(now uint64) uint64 {
	if a.hot > 0 {
		return now + 1
	}
	if len(a.heap) == 0 {
		return Never
	}
	if at := a.heap[0].at; at > now {
		return at
	}
	return now + 1
}

// less orders heap entries by (cycle, slot index): time first, then
// canonical component order, so the agenda minimum is deterministic
// even when many components wake on the same cycle.
func (a *Agenda) less(i, j int) bool {
	if a.heap[i].at != a.heap[j].at {
		return a.heap[i].at < a.heap[j].at
	}
	return a.heap[i].idx < a.heap[j].idx
}

// swap exchanges heap entries i and j and their slots' positions.
func (a *Agenda) swap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.pos[a.heap[i].idx] = i
	a.pos[a.heap[j].idx] = j
}

// up sifts entry i toward the root and reports whether it moved.
func (a *Agenda) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

// down sifts entry i toward the leaves.
func (a *Agenda) down(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && a.less(l, small) {
			small = l
		}
		if r < n && a.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		a.swap(i, small)
		i = small
	}
}

// fix restores the heap order after entry i's key changed.
func (a *Agenda) fix(i int) {
	if !a.up(i) {
		a.down(i)
	}
}

// remove deletes entry i, moving the last entry into its place.
func (a *Agenda) remove(i int) {
	last := len(a.heap) - 1
	a.swap(i, last)
	a.pos[a.heap[last].idx] = notQueued
	a.heap = a.heap[:last]
	if i < last {
		a.fix(i)
	}
}
