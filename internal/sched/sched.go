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
// Hot and Never transitions are O(1) and touch no heap state: only
// concrete future cycles enter the min-heap, which is keyed by
// (cycle, slot index) so that ties resolve in canonical component
// order and the agenda is deterministic regardless of insertion order.
// Reschedules use lazy deletion: the wake slice is authoritative and
// stale heap entries are discarded when they surface at the top.
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

// entry is a scheduled (cycle, slot) pair in the min-heap. An entry is
// valid iff wake[idx] still equals at; anything else is a stale
// leftover from a reschedule, discarded lazily.
type entry struct {
	at  uint64
	idx int
}

// Agenda is a deterministic wake-up agenda over a fixed set of slots.
// It is not safe for concurrent use; the engine drives it from the
// serial section of the cycle loop.
type Agenda struct {
	wake []uint64 // authoritative wake per slot: Hot, Never, or a future cycle
	heap []entry  // min-heap on (at, idx) of possibly-stale concrete wakes
	hot  int      // number of slots currently Hot
}

// NewAgenda returns an empty agenda; add slots with AddSlot.
func NewAgenda() *Agenda { return &Agenda{} }

// AddSlot registers a new component slot and returns its index. Slots
// are allocated in canonical component order once at machine
// construction; the index doubles as the deterministic tiebreak for
// same-cycle events. New slots start at Never.
func (a *Agenda) AddSlot() int {
	a.wake = append(a.wake, Never)
	return len(a.wake) - 1
}

// Slots returns the number of registered slots.
func (a *Agenda) Slots() int { return len(a.wake) }

// Wake returns the current wake value of a slot (Hot, Never, or a
// concrete cycle).
func (a *Agenda) Wake(idx int) uint64 { return a.wake[idx] }

// Schedule sets a slot's wake to at (Hot, Never, or a concrete future
// cycle). Rescheduling to the current value is a no-op, so callers may
// re-register unconditionally on every state change without flooding
// the heap with duplicates. Old concrete entries are invalidated
// implicitly (lazy deletion).
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
	if at != Hot && at != Never {
		a.push(entry{at: at, idx: idx})
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
//
// Stale heap entries surfacing at the top are discarded here; the call
// is amortized O(log n).
func (a *Agenda) Horizon(now uint64) uint64 {
	if a.hot > 0 {
		return now + 1
	}
	for len(a.heap) > 0 {
		top := a.heap[0]
		if a.wake[top.idx] != top.at {
			a.pop() // stale: slot was rescheduled since this was pushed
			continue
		}
		if top.at <= now {
			return now + 1
		}
		return top.at
	}
	return Never
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

func (a *Agenda) push(e entry) {
	a.heap = append(a.heap, e)
	i := len(a.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a.heap[i], a.heap[parent] = a.heap[parent], a.heap[i]
		i = parent
	}
}

func (a *Agenda) pop() {
	n := len(a.heap) - 1
	a.heap[0] = a.heap[n]
	a.heap = a.heap[:n]
	i := 0
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
		a.heap[i], a.heap[small] = a.heap[small], a.heap[i]
		i = small
	}
}
