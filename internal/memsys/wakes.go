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
// cycles on which the rest of the machine is busy. An L1 slot is only
// ever Hot or Never; an L2 slot is Hot, Never or a cycle (a TC-Strong
// bank waiting out leases). The System mirrors the Hot slots in two
// bitsets (hotL1, hotL2) and the timed bank slots in a third
// (timedL2), whose banks join hotL2 on their cycle, and TickDue walks
// only the members: an executed cycle costs the controllers that act,
// not the machine size.
// The relaxed exchange (relaxed.go) replays the shared side with the
// shared parts of TickDue and RefreshDue and with SyncClocks on the
// same slots. Soundness rests on each component's local contract:
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
//   - L1/L2 controllers: an L1's Quiescent() means "Tick would be a
//     pure no-op at any future cycle until a new message or access
//     arrives" (coherence.L1 contract), so a quiescent L1 parks at
//     Never and a busy one is Hot. A bank answers its Wake query:
//     Hot, Never (Quiescent), or a cycle before which every tick would
//     only advance its clock and per-cycle stall counters — a
//     TC-Strong bank whose only work is blocked writes sleeps until
//     the earliest lease expiry. The ingress hooks re-arm a controller
//     (Hot) the moment a delivery or enqueue targets it. A sleeping
//     controller's clock is not advanced every cycle: it is brought
//     current just before something reads it, to the value the serial
//     tick order would show — the cycle before, by the ingress hooks
//     ahead of a delivery or DRAM fill; the cycle itself, by the event
//     engine ahead of the SM's tick (its accesses); and everywhere, by
//     SyncControllers when a phase exits and, for the banks, at the
//     end of each relaxed exchange window. A timed bank's SyncClock
//     (and its Tick, for the cycles before it) credits the stall
//     counts of the cycles it slept.
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
// (sleep-cycles; for the controllers, the class size less the ticks).
// The relaxed exchange dispatches the shared side through the same
// path, so the NoC, DRAM and L2 counts cover relaxed phases too; an
// SM domain's L1 ticks count as its domain cycles instead. Like the
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
	s.hotL1 = sched.NewSet(len(s.L1s))
	s.hotL2 = sched.NewSet(len(s.L2s))
	s.timedL2 = sched.NewSet(len(s.L2s))
	s.tickedParts = make([]int, 0, len(s.Parts))
	s.tickedL2s = make([]int, 0, len(s.L2s))
	s.tickedL1s = make([]int, 0, len(s.L1s))
}

// AddSlot appends one extra slot (the simulator registers its SMs
// here) so every timed component shares a single deterministic agenda.
func (s *System) AddSlot() int { return s.Wakes.AddSlot() }

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
// cycle, exactly as under the wholesale tick. The controller loops walk
// the Hot sets in index order, re-reading the set after every tick, so
// they tick exactly the controllers a scan of every slot would.
func (s *System) TickDue(now uint64, d *DispatchStats) {
	s.tickShared(now, d)
	s.tickedL1s = s.tickedL1s[:0]
	for i := s.hotL1.Next(0); i >= 0; i = s.hotL1.Next(i + 1) {
		s.L1s[i].Tick(now)
		s.tickedL1s = append(s.tickedL1s, i)
	}
	d.L1Ticks += uint64(len(s.tickedL1s))
	d.L1Sleeps += uint64(len(s.L1s) - len(s.tickedL1s))
}

// tickShared is TickDue's shared part — the NoC, the partitions, the
// fault-shim releases and the L2 banks — which the relaxed exchange
// also runs on its own at each epoch barrier.
func (s *System) tickShared(now uint64, d *DispatchStats) {
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
	// A bank asleep until a timed wake joins the Hot set on its cycle.
	for i := s.timedL2.Next(0); i >= 0; i = s.timedL2.Next(i + 1) {
		if due(s.Wakes.Wake(s.slotL2+i), now) {
			s.markL2(i, sched.Hot)
		}
	}
	s.tickedL2s = s.tickedL2s[:0]
	for i := s.hotL2.Next(0); i >= 0; i = s.hotL2.Next(i + 1) {
		s.L2s[i].Tick(now)
		s.tickedL2s = append(s.tickedL2s, i)
	}
	d.L2Ticks += uint64(len(s.tickedL2s))
	d.L2Sleeps += uint64(len(s.L2s) - len(s.tickedL2s))
}

// SyncClocks advances the hierarchy's clock across a proven-quiet
// window without ticking anything: every slot's wake lies beyond now
// (that is what made the window skippable), so a wholesale Tick(now)
// would be a no-op except for the clock assignments it opens with. The
// NoC stamps enqueues and a shim stamps arrivals from its clock, so
// theirs advance here; a controller's clock is brought current only
// when something reads it (see the file comment and SyncControllers),
// and DRAM partitions keep no local clock (all their timing state is
// absolute).
func (s *System) SyncClocks(now uint64) {
	s.clock = now
	for _, sh := range s.shims {
		sh.Sync(now)
	}
	s.Net.Sync(now)
}

// SyncControllers brings every L1 and L2 clock to now. The simulator
// calls it whenever a phase exits, so pauses, digests and dumps see the
// clocks the serial tick order would (see coherence.L1.SyncClock).
func (s *System) SyncControllers(now uint64) {
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
	s.refreshShared(now)
	for _, i := range s.tickedL1s {
		s.markL1(i, !s.L1s[i].Quiescent())
	}
	for _, i := range smsTicked {
		s.markL1(i, !s.L1s[i].Quiescent())
	}
}

// refreshShared is RefreshDue's shared part.
func (s *System) refreshShared(now uint64) {
	s.Wakes.Schedule(s.slotNet, s.Net.NextWork(now))
	for _, i := range s.tickedParts {
		s.Wakes.Schedule(s.slotPart+i, s.Parts[i].NextEvent(now))
	}
	for _, i := range s.tickedL2s {
		s.markL2(i, s.L2s[i].Wake(now))
	}
}

// sharedHorizon is the agenda horizon over the shared side's slots
// alone, which precede every L1 slot: the earliest cycle after now at
// which the NoC, a partition, a fault shim or an L2 bank needs a tick.
func (s *System) sharedHorizon(now uint64) uint64 {
	next := uint64(sched.Never)
	for i := s.slotNet; i < s.slotL1; i++ {
		next = min(next, s.Wakes.Wake(i))
	}
	return max(next, now+1)
}

// markL2 schedules bank i's slot at wake w — Hot, Never or a cycle —
// and mirrors it in hotL2 and timedL2.
func (s *System) markL2(i int, w uint64) {
	switch w {
	case sched.Hot:
		s.hotL2.Add(i)
		s.timedL2.Remove(i)
	case sched.Never:
		s.hotL2.Remove(i)
		s.timedL2.Remove(i)
	default:
		s.hotL2.Remove(i)
		s.timedL2.Add(i)
	}
	s.Wakes.Schedule(s.slotL2+i, w)
}

// markL1 schedules L1 i's slot Hot or Never and mirrors it in hotL1.
// The relaxed exchange fires the same ingress hooks, always on the
// master; the L1 marks they make are never read there (SM domains tick
// their L1s themselves), and every phase re-registers all slots from
// live state on entry.
func (s *System) markL1(i int, hot bool) {
	if hot {
		s.hotL1.Add(i)
		s.Wakes.Schedule(s.slotL1+i, sched.Hot)
	} else {
		s.hotL1.Remove(i)
		s.Wakes.Schedule(s.slotL1+i, sched.Never)
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
//     them) or must tick every cycle (Hot), or, for a bank, sleep
//     until the cycle its Wake names;
//   - the rollover schedule is live only in the run phase (run).
//
// This full scan runs only at phase entry: between-phase work — the
// kernel-boundary L1 flush — mutates components outside any dispatch.
// Steady-state cycles use the incremental RefreshDue.
func (s *System) RefreshWakes(now uint64, run bool) {
	s.Wakes.Schedule(s.slotNet, s.Net.NextWork(now))
	for i, p := range s.Parts {
		s.Wakes.Schedule(s.slotPart+i, p.NextEvent(now))
	}
	for k, sh := range s.shims {
		s.Wakes.Schedule(s.slotShim+k, sh.NextDue())
	}
	for i, l2 := range s.L2s {
		s.markL2(i, l2.Wake(now))
	}
	for i, l1 := range s.L1s {
		s.markL1(i, !l1.Quiescent())
	}
	roll := uint64(sched.Never)
	if run {
		roll = s.nextRollover()
	}
	s.Wakes.Schedule(s.slotRoll, roll)
}

// NextEvent returns the earliest future cycle (> now) at which ticking
// the hierarchy could change any state: now+1 while any controller is
// Hot (it mutates state every tick), otherwise the earliest of the
// banks' timed wakes, the NoC wire/port events, the DRAM schedules,
// the fault shims' releases and the next forced rollover. It is the
// machine-wide aggregate of the agenda slots, computed by probing every
// component; the wake property tests check the slots' claims against
// it.
func (s *System) NextEvent(now uint64) uint64 {
	next := uint64(sched.Never)
	for _, l2 := range s.L2s {
		w := l2.Wake(now)
		if w == sched.Hot {
			return now + 1
		}
		next = min(next, w)
	}
	for _, l1 := range s.L1s {
		if !l1.Quiescent() {
			return now + 1
		}
	}
	next = min(next, s.Net.NextEvent(now))
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
