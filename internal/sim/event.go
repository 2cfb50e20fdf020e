// The scheduled-wake (event-driven) cycle engine: the simulator's one
// exact engine.
//
// Components register their next wake cycle on an agenda
// (internal/sched) whenever their state changes, and the loop advances
// time straight to the agenda horizon instead of ticking every
// component every cycle:
//
//   - whole-machine skips cost an O(1) agenda query, not a probe of
//     every component;
//   - SMs sleep INDIVIDUALLY: a stall-quiesced SM is simply not ticked
//     while the rest of the machine executes, and its provably
//     identical stall cycles are bulk-applied on wake-up; the SM keeps
//     its own sleep record (gpu.SM.Sleep and Wake);
//   - hierarchy components sleep individually too: on each executed
//     cycle, memsys.TickDue dispatches Tick only to the NoC, DRAM
//     partitions, fault shims, L2 banks and L1s whose agenda wake is
//     due.
//
// Bit-identity argument (DESIGN.md §7 carries the full version): the
// reference is the serial tick order — on every cycle, tick the whole
// hierarchy (memsys.System.Tick), then every SM in index order, then
// the fault plan's rollover schedule. The engine executes every cycle
// on which any component could act; on each of them it ticks the due
// hierarchy components in that canonical order while the skipped ones
// were provably no-ops (quiescent controller, pre-deadline DRAM,
// pre-wake NoC, pre-release fault shim — the contracts in
// memsys/wakes.go); and it ticks every SM either really (awake) or as a
// bulk-applied pure stall whose per-cycle effects the Quiesce probe
// proved constant. Every fault RNG draw happens inside a component
// that really ticks, so the perturbation stream is consumed in the
// same order. All sampling boundaries (watchdog, ctx poll, RunUntil
// pauses, the (now|63)+1 cap) are preserved, so every check fires at
// the same cycle with the same state, and no lazily-slept state ever
// crosses a pause point: the loop flushes sleeping SMs on its way out,
// whatever the exit. The chaos and golden fingerprint tables pin the
// argument.
package sim

import (
	"context"

	"github.com/gtsc-sim/gtsc/internal/sched"
)

// eventState is the engine's per-simulator bookkeeping: the agenda
// slots of the SMs (each SM keeps its own sleep record). It is lazily
// allocated on the first event-engine phase and reused across kernels.
type eventState struct {
	smBase int   // first SM slot in the shared agenda (SM i = smBase+i)
	due    []int // scratch: awake SM indices this cycle
}

func (s *Simulator) ensureEventState() *eventState {
	if s.ev != nil {
		return s.ev
	}
	ev := &eventState{due: make([]int, 0, len(s.SMs))}
	ev.smBase = s.Sys.AddSlot()
	for i := 1; i < len(s.SMs); i++ {
		s.Sys.AddSlot()
	}
	s.ev = ev
	return ev
}

// wakeSM wakes sleeping SM i, bulk-applying its deferred stall cycles
// through cycle to, and marks its agenda slot Hot.
func (s *Simulator) wakeSM(i int, to uint64) {
	s.eng.SMSleepCycles += s.SMs[i].Wake(to)
	s.eng.SMWakes++
	s.Sys.Wakes.Schedule(s.ev.smBase+i, sched.Hot)
}

// flushSMs wakes every sleeping SM with its stall cycles applied up
// through s.now. The run loop calls it on every way out — pause,
// cancellation, completion, error, deadlock — so that no
// lazily-deferred state is observable from outside: stats and state
// digests are identical to the serial tick order's at the same cycle.
// (A failure's dump is built first; it shows no SM counters.)
func (s *Simulator) flushSMs() {
	for i, sm := range s.SMs {
		if sm.Asleep() {
			s.wakeSM(i, s.now)
		}
	}
}

// runPhaseEvent is the event-driven cycle loop of both kernel phases.
// Per iteration it either executes one cycle (due hierarchy components,
// then, in the run phase, awake SMs and the rollover schedule, then the
// wake refresh) or jumps the clock to just before the agenda horizon,
// capped at the watchdog/ctx-poll sampling boundary (now|63)+1, the
// MaxCycles budget, and the pause point, so every check below fires at
// the same cycles as under the serial tick order. The run phase ends
// once every warp has retired and the hierarchy is drained; the drain
// phase, after the kernel-boundary L1 flush, ticks no SM (their warps
// have all retired) and ends once the hierarchy is drained again.
func (s *Simulator) runPhaseEvent(ctx context.Context, stopAt uint64) (bool, error) {
	st := s.cur
	ev := s.ensureEventState()
	run := st.phase == phaseRun

	// Phase entry: every SM awake and its slot Hot in the run phase
	// (every phase leaves its SMs awake but a paused relaxed one, which
	// only a relaxed phase resumes), parked at Never in the drain phase,
	// where only the hierarchy drives the horizon; wakes re-registered
	// from live component state. This also erases any slot state a
	// previous phase left behind, which is what makes phases freely
	// mixable across pause/resume. The full RefreshWakes scan (not the
	// incremental RefreshDue) is required here: between-phase work — the
	// kernel-boundary L1 flush — mutates components outside any
	// dispatch.
	smWake := uint64(sched.Never)
	if run {
		smWake = sched.Hot
	}
	for i := range s.SMs {
		s.Sys.Wakes.Schedule(ev.smBase+i, smWake)
	}
	ev.due = ev.due[:0] // no SM has ticked yet; the drain phase ticks none
	s.Sys.RefreshWakes(s.now, run)
	defer s.flushSMs()
	pl := s.newPhaseLabels()
	defer pl.clear()

	for {
		if !run && s.Sys.Drained() {
			return false, nil
		}
		if stopAt != 0 && s.now >= stopAt {
			return true, nil
		}
		if s.now&ctxPollMask == 0 && ctx.Err() != nil {
			return true, s.canceled(ctx)
		}
		if s.budgetExhausted(s.now - st.start) {
			return false, s.deadlock("max-cycles")
		}
		pl.set(pl.agenda)
		if !s.trySkipEvent(st.start+s.Cfg.MaxCycles, stopAt, run) {
			s.now++
			pl.set(pl.hierarchy)
			s.Sys.TickDue(s.now, &s.eng.Comp)
			if run {
				pl.set(pl.smTick)
				s.tickSMsEvent()
				// Forced mid-run §V-D rollovers (fault plans only),
				// after the SM ticks; the agenda slot keeps the firing
				// cycle from being skipped.
				s.Sys.TickRollover(s.now)
				s.eng.RunCycles++
			} else {
				s.eng.DrainCycles++
			}
			pl.set(pl.agenda)
			s.Sys.RefreshDue(s.now, ev.due)
			s.eng.EventCycles++
		}
		if err := s.Sys.Err(); err != nil {
			return false, s.attachDump(err)
		}
		if run && s.done() {
			return false, nil
		}
		if s.now&63 == 0 {
			if err := s.watchdog(); err != nil {
				return false, err
			}
		}
	}
}

// trySkipEvent fast-forwards to just before the agenda horizon. The
// horizon is now+1 whenever any slot is Hot (an awake SM, a
// non-quiescent controller), so a jump proves the machine fully inert
// for the window: every slot's wake lies beyond j, so the only state a
// tick at j would touch is the component-local clocks. SyncClocks
// advances the NoC's and the fault shims'; a controller's clock is
// brought current when something next reads it (memsys/wakes.go).
// Sleeping SMs' stall stats stay deferred: the skipped window lies
// inside their sleep.
func (s *Simulator) trySkipEvent(budgetCap, stopAt uint64, run bool) bool {
	horizon := s.Sys.Wakes.Horizon(s.now)
	if horizon <= s.now+1 {
		return false
	}
	j := min(horizon-1, (s.now|63)+1, budgetCap)
	if stopAt != 0 {
		j = min(j, stopAt)
	}
	if j <= s.now {
		return false
	}
	k := j - s.now
	s.now = j
	s.Sys.SyncClocks(j)
	if run {
		s.eng.RunSkipped += k
	} else {
		s.eng.DrainSkipped += k
	}
	s.eng.SkipWindows++
	return true
}

// tickSMsEvent runs the SM side of one executed cycle. A sleeping SM
// wakes when its own wake cycle arrives or a memory completion stirred
// it (the hierarchy tick for this cycle already ran, so this-cycle
// deliveries are visible); waking bulk-applies the deferred stall
// cycles before the real tick. Awake SMs tick in canonical index
// order. After ticking, any SM that issued nothing and probes
// quiescent falls asleep, registering its wake on the agenda.
func (s *Simulator) tickSMsEvent() {
	ev := s.ev
	now := s.now
	due := ev.due[:0]
	for i, sm := range s.SMs {
		if sm.Asleep() {
			if !sm.Stirred() && now < sm.WakeAt() {
				continue // provably still the same pure stall
			}
			s.wakeSM(i, now-1)
		}
		due = append(due, i)
	}
	ev.due = due
	for _, i := range due {
		// The hierarchy brings a sleeping L1's clock current only when
		// something reads it; the SM's accesses read cycle now.
		s.Sys.L1s[i].SyncClock(now)
		s.SMs[i].Tick(now)
	}
	s.eng.SMTicks += uint64(len(due))
	for _, i := range due {
		if sm := s.SMs[i]; sm.Sleep() {
			// WakeAt is NeverWake (== sched.Never) or a cycle > now;
			// either way it is a valid agenda registration.
			s.Sys.Wakes.Schedule(ev.smBase+i, sm.WakeAt())
		}
	}
}
