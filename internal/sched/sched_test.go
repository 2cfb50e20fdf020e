package sched

import (
	"math/rand"
	"testing"
)

func TestHorizonEmpty(t *testing.T) {
	a := NewAgenda(0)
	if got := a.Horizon(5); got != Never {
		t.Fatalf("empty agenda horizon = %d, want Never", got)
	}
	idx := a.AddSlot()
	if got := a.Wake(idx); got != Never {
		t.Fatalf("fresh slot wake = %d, want Never", got)
	}
	if got := a.Horizon(5); got != Never {
		t.Fatalf("all-Never horizon = %d, want Never", got)
	}
}

func TestHotPinsHorizon(t *testing.T) {
	a := NewAgenda(0)
	s0, s1 := a.AddSlot(), a.AddSlot()
	a.Schedule(s0, 100)
	a.Schedule(s1, Hot)
	if got := a.Horizon(10); got != 11 {
		t.Fatalf("horizon with hot slot = %d, want 11", got)
	}
	a.Schedule(s1, Never)
	if got := a.Horizon(10); got != 100 {
		t.Fatalf("horizon after hot slot went inert = %d, want 100", got)
	}
}

func TestRescheduleLazyDeletion(t *testing.T) {
	a := NewAgenda(0)
	s := a.AddSlot()
	a.Schedule(s, 50)
	a.Schedule(s, 200) // the 50 entry is now stale
	if got := a.Horizon(10); got != 200 {
		t.Fatalf("horizon after reschedule = %d, want 200", got)
	}
	a.Schedule(s, 30) // earlier again
	if got := a.Horizon(10); got != 30 {
		t.Fatalf("horizon after earlier reschedule = %d, want 30", got)
	}
	a.Schedule(s, Never)
	if got := a.Horizon(10); got != Never {
		t.Fatalf("horizon after slot went inert = %d, want Never", got)
	}
}

func TestScheduleSameValueIsNoOp(t *testing.T) {
	a := NewAgenda(0)
	s := a.AddSlot()
	for i := 0; i < 1000; i++ {
		a.Schedule(s, 77)
	}
	if got := len(a.heap); got != 1 {
		t.Fatalf("heap grew to %d entries from repeated identical schedules, want 1", got)
	}
	for i := 0; i < 1000; i++ {
		a.Schedule(s, Hot)
	}
	if a.hot != 1 {
		t.Fatalf("hot count = %d after repeated Hot schedules, want 1", a.hot)
	}
	a.Schedule(s, Never)
	if a.hot != 0 {
		t.Fatalf("hot count = %d after leaving Hot, want 0", a.hot)
	}
}

func TestOverdueWakeIsNotJumpedPast(t *testing.T) {
	a := NewAgenda(0)
	s := a.AddSlot()
	a.Schedule(s, 8)
	// The engine is at cycle 20 but the slot still claims 8: the
	// horizon must force execution, never skip beyond a due event.
	if got := a.Horizon(20); got != 21 {
		t.Fatalf("horizon over overdue wake = %d, want 21", got)
	}
}

func TestDeterministicTiebreak(t *testing.T) {
	// Same-cycle wakes must surface lowest slot index first regardless
	// of insertion order.
	for trial := 0; trial < 8; trial++ {
		a := NewAgenda(0)
		idxs := make([]int, 16)
		for i := range idxs {
			idxs[i] = a.AddSlot()
		}
		rng := rand.New(rand.NewSource(int64(trial)))
		perm := rng.Perm(len(idxs))
		for _, i := range perm {
			a.Schedule(idxs[i], 42)
		}
		if got := a.Horizon(0); got != 42 {
			t.Fatalf("horizon = %d, want 42", got)
		}
		if top := a.heap[0]; top.idx != 0 {
			t.Fatalf("trial %d: heap top idx = %d, want 0 (canonical tiebreak)", trial, top.idx)
		}
	}
}

// TestAgendaMatchesNaiveScan drives a randomized schedule/advance
// sequence and checks Horizon against a brute-force scan of the
// authoritative wake slice.
func TestAgendaMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAgenda(0)
	const slots = 24
	for i := 0; i < slots; i++ {
		a.AddSlot()
	}
	naive := func(now uint64) uint64 {
		horizon := uint64(Never)
		for i := 0; i < slots; i++ {
			switch w := a.Wake(i); {
			case w == Never:
			case w <= now: // Hot or overdue
				return now + 1
			case w < horizon:
				horizon = w
			}
		}
		return horizon
	}
	now := uint64(0)
	for step := 0; step < 20000; step++ {
		idx := rng.Intn(slots)
		switch rng.Intn(5) {
		case 0:
			a.Schedule(idx, Hot)
		case 1:
			a.Schedule(idx, Never)
		default:
			a.Schedule(idx, now+1+uint64(rng.Intn(200)))
		}
		if rng.Intn(4) == 0 {
			now += uint64(rng.Intn(3))
		}
		want := naive(now)
		if got := a.Horizon(now); got != want {
			t.Fatalf("step %d now %d: Horizon = %d, naive scan = %d", step, now, got, want)
		}
	}
	// The heap holds one entry per concrete wake, never stale ones.
	if len(a.heap) > slots {
		t.Fatalf("heap retained %d entries for %d slots", len(a.heap), slots)
	}
}

// TestAgendaHeapBounded drives a long randomized schedule shaped like
// a busy machine's: most reschedules move a slot's concrete wake (a
// port's next free cycle, a fill's landing) while one early wake pins
// the horizon, so superseded wakes never surface at the top. At every
// step the heap must stay within twice the slot count and Horizon must
// equal a brute-force minimum over the wakes.
func TestAgendaHeapBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := NewAgenda(0)
	const slots = 50
	for i := 0; i < slots; i++ {
		a.AddSlot()
	}
	naive := func(now uint64) uint64 {
		horizon := uint64(Never)
		for i := 0; i < a.Slots(); i++ {
			switch w := a.Wake(i); {
			case w == Never:
			case w <= now:
				return now + 1
			case w < horizon:
				horizon = w
			}
		}
		return horizon
	}
	now := uint64(0)
	for step := 0; step < 50000; step++ {
		idx := rng.Intn(slots)
		switch r := rng.Intn(20); {
		case r == 0:
			a.Schedule(idx, Hot)
		case r == 1:
			a.Schedule(idx, Never)
		case r < 4:
			a.Schedule(idx, now+1+uint64(rng.Intn(8)))
		default:
			a.Schedule(idx, now+100+uint64(rng.Intn(10000)))
		}
		if rng.Intn(8) == 0 {
			now++
		}
		if got, limit := len(a.heap), 2*a.Slots(); got > limit {
			t.Fatalf("step %d: heap holds %d entries for %d slots, want <= %d", step, got, a.Slots(), limit)
		}
		if got, want := a.Horizon(now), naive(now); got != want {
			t.Fatalf("step %d now %d: Horizon = %d, brute force = %d", step, now, got, want)
		}
	}
}
