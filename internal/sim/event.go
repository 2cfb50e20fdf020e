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
//     identical stall cycles are bulk-applied on wake-up
//     (gpu.SkipCycles);
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
// same order. All sampling boundaries (watchdog, ctx poll, checkpoint
// pauses, the (now|63)+1 cap) are preserved, so every check fires at
// the same cycle with the same state, and no lazily-slept state ever
// crosses a pause point: every exit path flushes sleeping SMs first.
// The chaos and golden fingerprint tables pin the argument.
package sim

import (
	"context"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/sched"
)

// eventState is the engine's per-simulator bookkeeping: one agenda slot
// and one sleep record per SM. It is lazily allocated on the first
// event-engine phase and reused across kernels.
type eventState struct {
	smBase int // first SM slot in the shared agenda (SM i = smBase+i)

	asleep []bool           // SM is sleeping (not ticked; stats applied lazily)
	probes []gpu.StallProbe // the probe that justified the sleep
	comps  []uint64         // sm.Completions() snapshot at sleep time
	clocks []uint64         // last cycle each SM's stats actually cover
	act    []uint64         // scratch: ActiveCycles before this cycle's tick
	due    []int            // scratch: awake SM indices this cycle
}

func (s *Simulator) ensureEventState() *eventState {
	if s.ev != nil {
		return s.ev
	}
	n := len(s.SMs)
	ev := &eventState{
		asleep: make([]bool, n),
		probes: make([]gpu.StallProbe, n),
		comps:  make([]uint64, n),
		clocks: make([]uint64, n),
		act:    make([]uint64, n),
		due:    make([]int, 0, n),
	}
	ev.smBase = s.Sys.AddSlot()
	for i := 1; i < n; i++ {
		s.Sys.AddSlot()
	}
	s.ev = ev
	return ev
}

// flushSMs applies every sleeping SM's deferred stall cycles up
// through s.now and marks it awake (agenda slot Hot). It is called at
// every point control can leave the event loop — pause, cancellation,
// completion, error, deadlock — so that no lazily-deferred state is
// observable from outside: stats, dumps, and checkpoint digests are
// identical to the serial tick order's at the same cycle.
func (s *Simulator) flushSMs() {
	ev := s.ev
	if ev == nil {
		return
	}
	for i, sm := range s.SMs {
		if !ev.asleep[i] {
			continue
		}
		if k := s.now - ev.clocks[i]; k > 0 {
			sm.SkipCycles(s.now, k, ev.probes[i])
			s.eng.SMSleepCycles += k
		}
		ev.asleep[i] = false
		ev.clocks[i] = s.now
		s.Sys.Wakes.Schedule(ev.smBase+i, sched.Hot)
		s.eng.SMWakes++
	}
}

// runPhaseEvent is the event-driven main cycle loop. Per iteration it
// either executes one cycle (due hierarchy components, awake SMs, the
// rollover schedule, then the wake refresh) or jumps the clock to just
// before the agenda horizon, capped at the watchdog/ctx-poll sampling
// boundary (now|63)+1, the MaxCycles budget, and the pause point, so
// every check below fires at the same cycles as under the serial tick
// order.
func (s *Simulator) runPhaseEvent(ctx context.Context, stopAt uint64) (bool, error) {
	st := s.cur
	ev := s.ensureEventState()
	s.eng.Workers = 1

	// Phase entry: everything awake (slots Hot) with stats current
	// through s.now, wakes re-registered from live component state.
	// This also erases any slot state a previous phase left behind,
	// which is what makes phases freely mixable across pause/resume.
	// The full RefreshWakes scan (not the incremental RefreshDue) is
	// required here: between-phase work — the kernel-boundary L1
	// flush, a checkpoint restore — mutates components outside any
	// dispatch.
	s.flushSMs()
	for i := range s.SMs {
		ev.clocks[i] = s.now
		s.Sys.Wakes.Schedule(ev.smBase+i, sched.Hot)
	}
	s.Sys.RefreshWakes(s.now, true)
	pl := s.newPhaseLabels()
	defer pl.clear()

	for {
		if stopAt != 0 && s.now >= stopAt {
			s.flushSMs()
			return true, nil
		}
		if s.now&ctxPollMask == 0 && ctx.Err() != nil {
			s.flushSMs()
			return true, s.canceled(ctx, "run")
		}
		if s.budgetExhausted(s.now - st.start) {
			s.flushSMs()
			return false, s.deadlock(st.kernel.Name, "run", "max-cycles", s.now-st.lastProgress)
		}
		pl.set(pl.agenda)
		if !s.trySkipEvent(st.start+s.Cfg.MaxCycles, stopAt, true) {
			s.now++
			pl.set(pl.hierarchy)
			s.Sys.TickDue(s.now, &s.eng.Comp)
			pl.set(pl.smTick)
			s.tickSMsEvent()
			// Forced mid-run §V-D rollovers (fault plans only), after
			// the SM ticks; the agenda slot keeps the firing cycle from
			// being skipped.
			s.Sys.TickRollover(s.now)
			pl.set(pl.agenda)
			s.Sys.RefreshDue(s.now, ev.due)
			s.eng.RunCycles++
			s.eng.EventCycles++
		}
		if err := s.Sys.Err(); err != nil {
			s.flushSMs()
			return false, s.attachDump(err)
		}
		if s.done() {
			s.flushSMs()
			return false, nil
		}
		// Forward-progress watchdog: sample the monotone activity
		// counters every 64 cycles; a window with no change anywhere in
		// the machine is a deadlock, reported with a state dump long
		// before the MaxCycles budget would expire.
		if !s.Cfg.DisableWatchdog && s.now&63 == 0 {
			if sig := s.progressSig(); sig != st.lastSig {
				st.lastSig = sig
				st.lastProgress = s.now
			} else if s.now-st.lastProgress >= s.Cfg.WatchdogWindow {
				s.flushSMs()
				return false, s.deadlock(st.kernel.Name, "run", "no-forward-progress", s.now-st.lastProgress)
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
		s.cur.guard += k - 1 // the drain loop's post-statement adds the last one
	}
	s.eng.SkipWindows++
	return true
}

// tickSMsEvent runs the SM side of one executed cycle. Sleeping SMs
// wake when their probe's wake cycle arrives or a memory completion
// landed on them (the hierarchy tick for this cycle already ran, so
// this-cycle deliveries are visible); waking bulk-applies the deferred
// stall cycles before the real tick. Awake SMs tick in canonical index
// order. After ticking, any SM that issued nothing and probes
// quiescent goes to sleep, registering its wake on the agenda.
func (s *Simulator) tickSMsEvent() {
	ev := s.ev
	now := s.now
	due := ev.due[:0]
	for i, sm := range s.SMs {
		if ev.asleep[i] {
			if sm.Completions() == ev.comps[i] && now < ev.probes[i].Wake {
				continue // provably still the same pure stall
			}
			if k := now - 1 - ev.clocks[i]; k > 0 {
				sm.SkipCycles(now-1, k, ev.probes[i])
				s.eng.SMSleepCycles += k
			}
			ev.asleep[i] = false
			s.Sys.Wakes.Schedule(ev.smBase+i, sched.Hot)
			s.eng.SMWakes++
		}
		ev.act[i] = sm.Stats().ActiveCycles
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
	// Stall-onset probe. A zero-issue tick means the scheduler scanned
	// every non-skipped warp without issuing, so the probe's view is
	// exactly this tick's.
	for _, i := range due {
		sm := s.SMs[i]
		ev.clocks[i] = now
		if sm.Stats().ActiveCycles != ev.act[i] {
			continue
		}
		if p, ok := sm.Quiesce(); ok {
			ev.asleep[i] = true
			ev.probes[i] = p
			ev.comps[i] = sm.Completions()
			// p.Wake is NeverWake (== sched.Never) or a cycle > now;
			// either way it is a valid agenda registration.
			s.Sys.Wakes.Schedule(ev.smBase+i, p.Wake)
		}
	}
}

// drainPhaseEvent is the event-driven kernel-boundary drain. SMs are
// never ticked during drain (their warps have all retired), so their
// slots are parked at Never and only the hierarchy drives the horizon.
func (s *Simulator) drainPhaseEvent(ctx context.Context, stopAt uint64) (bool, error) {
	st := s.cur
	ev := s.ensureEventState()
	s.flushSMs()
	for i := range s.SMs {
		s.Sys.Wakes.Schedule(ev.smBase+i, sched.Never)
	}
	s.Sys.RefreshWakes(s.now, false)
	pl := s.newPhaseLabels()
	defer pl.clear()
	for ; !s.Sys.Drained(); st.guard++ {
		if stopAt != 0 && s.now >= stopAt {
			return true, nil
		}
		if s.now&ctxPollMask == 0 && ctx.Err() != nil {
			return true, s.canceled(ctx, "drain")
		}
		if s.budgetExhausted(st.guard) {
			return false, s.deadlock(st.kernel.Name, "drain", "max-cycles", s.now-st.lastProgress)
		}
		pl.set(pl.agenda)
		if !s.trySkipEvent(s.now+(s.Cfg.MaxCycles-st.guard), stopAt, false) {
			s.now++
			pl.set(pl.hierarchy)
			s.Sys.TickDue(s.now, &s.eng.Comp)
			pl.set(pl.agenda)
			s.Sys.RefreshDue(s.now, nil)
			s.eng.DrainCycles++
			s.eng.EventCycles++
		}
		if err := s.Sys.Err(); err != nil {
			return false, s.attachDump(err)
		}
		if !s.Cfg.DisableWatchdog && s.now&63 == 0 {
			if sig := s.progressSig(); sig != st.lastSig {
				st.lastSig = sig
				st.lastProgress = s.now
			} else if s.now-st.lastProgress >= s.Cfg.WatchdogWindow {
				return false, s.deadlock(st.kernel.Name, "drain", "no-forward-progress", s.now-st.lastProgress)
			}
		}
	}
	return false, nil
}
