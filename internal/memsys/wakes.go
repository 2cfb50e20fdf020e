// Scheduled-wake registration and per-component dispatch for the
// event-driven engine.
//
// The agenda holds one slot per hierarchy component in canonical tick
// order (net, partitions, fault shims, L2 banks, L1s, then the fault
// plan's rollover schedule) plus the SM slots the simulator appends.
// A slot's wake answers "when could ticking this component next change
// state?". The slots serve two roles: they bound the machine horizon
// (how far the clock may jump over fully-idle windows), and they drive
// DISPATCH: TickDue walks the components in canonical order and ticks
// only those whose wake is due, so a quiet L2 bank sleeps through
// cycles on which the rest of the machine is busy. Soundness rests on
// each component's local contract:
//
//   - NoC: NextWork is a sound lower bound maintained on every
//     injection (noc.noteWork) and recomputed after every real tick;
//     Tick on a pre-wake cycle would only advance n.now, which Sync
//     does instead.
//   - DRAM partition: NextEvent is exact (flat) or conservative
//     (banked); Tick before the wake is a no-op because all partition
//     timing state is absolute (see dram.NextEvent).
//   - Fault shim: NextDue is the earliest held message's release
//     cycle; Release before it delivers nothing and draws nothing.
//     Its clock is synced every cycle, like the NoC's.
//   - L1/L2 controllers: Quiescent() means "Tick would be a pure no-op
//     at any future cycle until a new message or access arrives"
//     (coherence.L1 contract), so a quiescent controller parks at
//     Never and is re-armed by the ingress hooks the moment a delivery
//     or enqueue targets it; a non-quiescent one is Hot.
//   - Rollover: the forced-reset schedule fires at its armed cycle, and
//     only in the run phase, where the simulator calls TickRollover
//     after the SM ticks; the slot is parked at Never while draining.
//
// Re-registration happens at every point that can pull a wake earlier:
// every delivery into a controller marks the receiver Hot before the
// message lands, every arrival at a fault shim re-registers its
// NextDue, an L2's DRAM enqueue re-registers the partition from its
// post-enqueue NextEvent (dramSender; memsys.New wires all of these),
// and RefreshDue re-probes exactly the components that were ticked
// this cycle — plus the L1s of SMs that ticked, because an SM access
// can un-quiesce its L1 without any hierarchy dispatch. The coarse
// System.NextEvent aggregate is the cross-check the wake property
// tests (sim.TestHorizonClaimsSound) verify the slots against.
package memsys

import "github.com/gtsc-sim/gtsc/internal/sched"

// DispatchStats counts per-component dispatch decisions made by
// TickDue: for each component class, how many per-cycle ticks were
// performed vs skipped because the component's wake was not due
// (sleep-cycles). All zero for phases the relaxed engine ran. Like the
// rest of EngineStats these are pure scheduling observability: they
// never feed back into the simulated machine.
type DispatchStats struct {
	NoCTicks   uint64
	NoCSleeps  uint64
	DRAMTicks  uint64
	DRAMSleeps uint64
	L2Ticks    uint64
	L2Sleeps   uint64
	L1Ticks    uint64
	L1Sleeps   uint64
}

// HierarchyTicks is the total number of component ticks dispatched.
func (d *DispatchStats) HierarchyTicks() uint64 {
	return d.NoCTicks + d.DRAMTicks + d.L2Ticks + d.L1Ticks
}

// HierarchySleeps is the total number of component-cycles skipped: a
// component asleep through one executed cycle counts one.
func (d *DispatchStats) HierarchySleeps() uint64 {
	return d.NoCSleeps + d.DRAMSleeps + d.L2Sleeps + d.L1Sleeps
}

func (s *System) initWakes() {
	// Room for every slot below plus the one per SM the simulator
	// adds (AddSlot).
	s.Wakes = sched.NewAgenda(2 + len(s.Parts) + len(s.shims) + len(s.L2s) + 2*len(s.L1s))
	s.slotNet = s.Wakes.AddSlot()
	s.slotPart = s.Wakes.Slots()
	for range s.Parts {
		s.Wakes.AddSlot()
	}
	s.slotShim = s.Wakes.Slots()
	for range s.shims {
		s.Wakes.AddSlot()
	}
	s.slotL2 = s.Wakes.Slots()
	for range s.L2s {
		s.Wakes.AddSlot()
	}
	s.slotL1 = s.Wakes.Slots()
	for range s.L1s {
		s.Wakes.AddSlot()
	}
	s.slotRoll = s.Wakes.AddSlot()
	s.tickedParts = make([]int, 0, len(s.Parts))
	s.tickedL2s = make([]int, 0, len(s.L2s))
	s.tickedL1s = make([]int, 0, len(s.L1s))
}

// AddSlot appends one extra slot (the simulator registers its SMs
// here) so every timed component shares a single deterministic agenda.
func (s *System) AddSlot() int { return s.Wakes.AddSlot() }

// SetComponentWakes arms or disarms the ingress hooks. The event
// engine arms them for its phases; the relaxed engine, which never
// drains the agenda, disarms them so their registrations do not
// accumulate unread.
func (s *System) SetComponentWakes(on bool) { s.compWakes = on }

// due reports whether a slot's wake means "tick this cycle": Hot (0)
// always, Never never, a concrete wake when it has arrived. Overdue
// concrete wakes (< now) can only arise from the Horizon clamp; they
// dispatch immediately, which errs toward extra no-op ticks.
func due(wake, now uint64) bool { return wake <= now }

// TickDue advances the hierarchy one cycle, dispatching Tick only to
// components whose agenda wake is due, in exactly the canonical order
// Tick uses (net, partitions, fault-shim releases, L2s, L1s) — so among
// the components that do tick, the observable event sequence, fault
// RNG draws included, is identical to the wholesale tick, and the
// skipped ones were provably no-ops (see the file comment). Ticked
// component indices are recorded for RefreshDue; d accumulates the
// dispatch decisions.
//
// Deliveries mark their receiver Hot via the ingress hooks BEFORE the
// receiver's own slot is inspected (the NoC, partitions and shims
// dispatch first), so a message delivered this cycle is consumed this
// cycle, exactly as under the wholesale tick.
func (s *System) TickDue(now uint64, d *DispatchStats) {
	s.clock = now
	for _, sh := range s.shims {
		sh.Sync(now)
	}
	s.Net.Sync(now)
	if due(s.Wakes.Wake(s.slotNet), now) {
		s.Net.Tick(now)
		d.NoCTicks++
	} else {
		d.NoCSleeps++
	}
	s.tickedParts = s.tickedParts[:0]
	for i, p := range s.Parts {
		if due(s.Wakes.Wake(s.slotPart+i), now) {
			p.Tick(now)
			d.DRAMTicks++
			s.tickedParts = append(s.tickedParts, i)
		} else {
			d.DRAMSleeps++
		}
	}
	for k, sh := range s.shims {
		if due(s.Wakes.Wake(s.slotShim+k), now) {
			sh.Release()
			s.Wakes.Schedule(s.slotShim+k, sh.NextDue())
		}
	}
	s.tickedL2s = s.tickedL2s[:0]
	for i, l2 := range s.L2s {
		if due(s.Wakes.Wake(s.slotL2+i), now) {
			l2.Tick(now)
			d.L2Ticks++
			s.tickedL2s = append(s.tickedL2s, i)
		} else {
			l2.SyncClock(now)
			d.L2Sleeps++
		}
	}
	s.tickedL1s = s.tickedL1s[:0]
	for i, l1 := range s.L1s {
		if due(s.Wakes.Wake(s.slotL1+i), now) {
			l1.Tick(now)
			d.L1Ticks++
			s.tickedL1s = append(s.tickedL1s, i)
		} else {
			l1.SyncClock(now)
			d.L1Sleeps++
		}
	}
}

// SyncClocks advances component-local clocks across a proven-quiet
// window without ticking anything: every slot's wake lies beyond now
// (that is what made the window skippable), so a wholesale Tick(now)
// would be a no-op except for the clock assignments it opens with,
// which is exactly what Sync/SyncClock perform. Controller clocks
// matter even while inert (see coherence.L1.SyncClock), and a shim
// stamps arrivals from its clock; DRAM partitions keep no local clock
// (all their timing state is absolute).
func (s *System) SyncClocks(now uint64) {
	s.clock = now
	for _, sh := range s.shims {
		sh.Sync(now)
	}
	s.Net.Sync(now)
	for _, l2 := range s.L2s {
		l2.SyncClock(now)
	}
	for _, l1 := range s.L1s {
		l1.SyncClock(now)
	}
}

// RefreshDue re-registers wakes after an executed cycle under
// per-component dispatch, touching only the components whose state can
// have changed: the NoC (always — any L1/SM send this cycle lowered
// its cached next-work bound, and the read is O(1)), the partitions
// and controllers that ticked, and the L1s of the SMs in smsTicked (an
// SM access can un-quiesce its L1 with no hierarchy dispatch
// involved). Everything else kept the wake it registered when it last
// changed. Schedule dedups same-value writes, so double-refreshing an
// index is free.
func (s *System) RefreshDue(now uint64, smsTicked []int) {
	s.Wakes.Schedule(s.slotNet, s.Net.NextWork(now))
	for _, i := range s.tickedParts {
		s.Wakes.Schedule(s.slotPart+i, s.Parts[i].NextEvent(now))
	}
	for _, i := range s.tickedL2s {
		s.refreshL2(i)
	}
	for _, i := range s.tickedL1s {
		s.refreshL1(i)
	}
	for _, i := range smsTicked {
		s.refreshL1(i)
	}
}

func (s *System) refreshL2(i int) {
	if s.L2s[i].Quiescent() {
		s.Wakes.Schedule(s.slotL2+i, sched.Never)
	} else {
		s.Wakes.Schedule(s.slotL2+i, sched.Hot)
	}
}

func (s *System) refreshL1(i int) {
	if s.L1s[i].Quiescent() {
		s.Wakes.Schedule(s.slotL1+i, sched.Never)
	} else {
		s.Wakes.Schedule(s.slotL1+i, sched.Hot)
	}
}

// RefreshWakes re-registers every hierarchy component's wake from live
// state after the cycle at now fully executed. Each registration is
// O(1) (a shim's NextDue included):
//
//   - the NoC reports its incrementally-maintained next-work cycle;
//   - each DRAM partition reports its O(1) NextEvent (head-of-queue
//     issue opportunity or earliest scheduled fill);
//   - each fault shim reports its earliest held release cycle;
//   - L1/L2 controllers are either quiescent (inert until an input
//     arrives, at which point an ingress hook or RefreshDue re-arms
//     them) or must tick every cycle (Hot);
//   - the rollover schedule is live only in the run phase (run).
//
// This full scan runs only at phase entry: between-phase work — the
// kernel-boundary L1 flush, a checkpoint restore — mutates components
// outside any dispatch. Steady-state cycles use the incremental
// RefreshDue.
func (s *System) RefreshWakes(now uint64, run bool) {
	s.Wakes.Schedule(s.slotNet, s.Net.NextWork(now))
	for i, p := range s.Parts {
		s.Wakes.Schedule(s.slotPart+i, p.NextEvent(now))
	}
	for k, sh := range s.shims {
		s.Wakes.Schedule(s.slotShim+k, sh.NextDue())
	}
	for i := range s.L2s {
		s.refreshL2(i)
	}
	for i := range s.L1s {
		s.refreshL1(i)
	}
	roll := uint64(sched.Never)
	if run {
		roll = s.nextRollover()
	}
	s.Wakes.Schedule(s.slotRoll, roll)
}

// NextEvent returns the earliest future cycle (> now) at which ticking
// the hierarchy could change any state: now+1 while any controller is
// non-quiescent (it mutates state every tick), otherwise the earliest
// of the NoC wire/port events, the DRAM schedules, the fault shims'
// releases and the next forced rollover. It is the machine-wide
// aggregate of the agenda slots, computed by probing every component;
// the wake property tests check the slots' claims against it.
func (s *System) NextEvent(now uint64) uint64 {
	for _, l2 := range s.L2s {
		if !l2.Quiescent() {
			return now + 1
		}
	}
	for _, l1 := range s.L1s {
		if !l1.Quiescent() {
			return now + 1
		}
	}
	next := s.Net.NextEvent(now)
	for _, p := range s.Parts {
		next = min(next, p.NextEvent(now))
	}
	for _, sh := range s.shims {
		next = min(next, sh.NextDue())
	}
	// TickRollover keeps the schedule in the future through the run
	// phase; a past cycle means the drain phase, where it never fires.
	if r := s.nextRollover(); r > now {
		next = min(next, r)
	}
	return next
}

// Drained is the O(1)-per-component equivalent of Pending() == 0,
// cheap enough for the drain loop to evaluate every cycle.
func (s *System) Drained() bool {
	if s.Net.Pending() != 0 {
		return false
	}
	for _, sh := range s.shims {
		if sh.Pending() != 0 {
			return false
		}
	}
	for _, p := range s.Parts {
		if p.Pending() != 0 {
			return false
		}
	}
	for _, l1 := range s.L1s {
		if l1.Pending() != 0 {
			return false
		}
	}
	for _, l2 := range s.L2s {
		if !l2.Drained() {
			return false
		}
	}
	return s.relaxPending() == 0
}
