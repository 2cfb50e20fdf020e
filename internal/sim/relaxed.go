// The relaxed-synchronization (bounded-slack) cycle engine.
//
// The exact event engine synchronizes every component every cycle (or
// proves whole windows inert before skipping them). This engine — the
// structure of "Parallelizing a modern GPU simulator" (arXiv
// 2502.14691) — instead partitions the machine into domains that
// share no mutable state mid-epoch:
//
//   - one domain per SM: the SM plus its private L1 (SM domains run
//     concurrently on the blocking worker pool when GOMAXPROCS
//     allows);
//   - the shared side — the NoC, every L2 bank, and every DRAM
//     partition — which never runs inside an epoch at all: the master
//     replays it during the barrier's coupling phase
//     (memsys.RelaxedExchange) through the exact engine's own
//     shared-side dispatch and wake slots, in canonical order, which
//     keeps the shared G-TSC reset controller and the functional
//     backing store deterministic without locks.
//
// Each SM domain free-runs up to SlackCycles cycles, capturing every
// outbound NoC injection in a cycle-tagged epoch buffer. At the epoch
// barrier the master replays the whole shared side over the window —
// injecting buffered requests at their tagged cycles, ticking the
// banks so those requests are serviced at their true arrival cycles,
// and letting the banks put their responses straight on the wire
// within the same window — then
// commits deferred CTA refills in SM order and merges staged
// observations in canonical cycle order. The schedule of every domain
// therefore depends only on its own state and the barrier-delivered
// inputs — never on goroutine interleaving — so a relaxed run is
// deterministic at any worker count, including serial (GOMAXPROCS=1),
// where the same epoch structure is executed inline.
//
// A domain skips its pure stalls with the SM's own sleep record, as
// the exact engine does: after a zero-issue tick with a quiet L1 the
// SM falls asleep and bulk-applies its stall cycles through its own
// wake cycle or the epoch end. A sleep that reaches the epoch end
// carries across the barrier unless the barrier wakes the domain, and
// leaving the phase, except by a pause, wakes every SM, so a kernel
// never starts on the previous kernel's probe.
//
// What slack perturbs, and what it cannot (DESIGN.md §7 carries the
// full argument): an SM's outbound request is replayed at its true
// cycle and its response comes back cycle-exactly, but the SM only
// *observes* the response at the next barrier, so each dependent
// round trip stretches by at most one epoch-boundary rounding;
// barrier replay of an SM-domain send into a full port adds queueing
// the sending L1 never saw.
// Both are pure added latency on coherence traffic — the same
// perturbation class the chaos fault plans inject deliberately — and
// every protocol here is latency-tolerant by construction, so final
// memory state, workload verification, and coherence invariants are
// preserved exactly while cycle counts drift boundedly. At
// SlackCycles=0 this engine never engages and the golden-pinned
// exact engine runs unchanged.
package sim

import "context"

// relaxFine is the delivery-horizon rounding grid: when a response is
// in flight, epoch barriers land on multiples of this (phase-anchored)
// instead of the full SlackCycles grid. 8 sits at the measured knee of
// the barrier-cost vs observation-latency tradeoff: at slack 32 it
// halves the mean cycle deviation (8.5% -> 4.3% on the Fig-12 grid)
// with no measurable wall-time cost.
const relaxFine = 8

// relaxedState is the relaxed engine's per-simulator bookkeeping,
// lazily allocated on the first relaxed phase and reused across
// kernels.
type relaxedState struct {
	pool *tickPool // domain pool (nil when effective workers == 1)

	// Epoch window published to the domain runners before the pool
	// barrier (the epoch bump's release/acquire pair orders it).
	from uint64

	// Per-SM-domain scratch, each entry owned by whichever goroutine
	// runs that domain this epoch.
	smTicks   []uint64
	smSkipped []uint64

	pl phaseLabels
}

// useRelaxed reports whether the next run phase executes bounded-slack
// epochs. Fault injection forces SlackCycles=0 semantics: perturbation
// schedules are defined in terms of exact per-cycle interleaving, and
// the chaos fingerprint table pins bit-exact replay from a seed.
func (s *Simulator) useRelaxed() bool {
	return s.Cfg.SlackCycles > 0 && !s.Cfg.Mem.Fault.Enabled()
}

func (s *Simulator) ensureRelaxed() *relaxedState {
	if s.rx != nil {
		return s.rx
	}
	n := len(s.SMs)
	s.rx = &relaxedState{smTicks: make([]uint64, n), smSkipped: make([]uint64, n)}
	return s.rx
}

// runPhaseRelaxed is the epoch loop. Epoch barriers sit on a fixed
// grid — multiples of SlackCycles from the kernel's start — pulled in
// to the delivery horizon, so barrier positions are a function of
// machine state, never of scheduling. A pause (RunUntil stopAt, or a
// canceled context) never cuts an epoch short: it takes effect at the
// first barrier at or after stopAt, so pausing is pure suspension and
// a resumed run follows the uninterrupted trajectory exactly
// (TestRelaxedPauseBitIdentical).
func (s *Simulator) runPhaseRelaxed(ctx context.Context, stopAt uint64) (paused bool, err error) {
	st := s.cur
	rx := s.ensureRelaxed()
	slack := s.Cfg.SlackCycles

	s.Sys.RelaxedBegin()
	defer s.Sys.RelaxedEnd()
	for _, sm := range s.SMs {
		sm.SetDeferFills(true)
	}
	defer func() {
		for _, sm := range s.SMs {
			sm.SetDeferFills(false)
		}
	}()
	defer func() {
		for i := range rx.smTicks {
			s.eng.Relaxed.SMDomainCycles += rx.smTicks[i]
			s.eng.Relaxed.SMDomainSkipped += rx.smSkipped[i]
			rx.smTicks[i], rx.smSkipped[i] = 0, 0
		}
	}()
	// A domain sleeps through an epoch with its stall cycles applied
	// through the epoch end, so on leaving the phase, every SM wakes
	// with nothing left to apply. A pause keeps the sleeps: only this
	// phase resumes it, and the next epoch may still skip on them.
	defer func() {
		if !paused {
			for _, sm := range s.SMs {
				sm.Wake(s.now)
			}
		}
	}()
	// Phase entry, as in the event engine: between-phase work — the
	// kernel-boundary L1 flush — mutates components outside any
	// dispatch, so every wake is re-registered
	// from live state before the first exchange reads the shared slots.
	s.Sys.RefreshWakes(s.now, true)

	domains := len(s.SMs) // the shared side runs at the barrier, not in the pool
	workers := s.effectiveWorkers()
	if workers > 1 {
		rx.pool = newWorkPool(domains, workers, s.relaxedDomain)
		defer func() {
			rx.pool.shutdown()
			rx.pool = nil
		}()
	}
	s.eng.Relaxed.SlackCycles = slack
	rx.pl = s.newPhaseLabels()
	defer rx.pl.clear()

	for {
		if stopAt != 0 && s.now >= stopAt {
			return true, nil
		}
		if ctx.Err() != nil {
			return true, s.canceled(ctx)
		}
		if s.budgetExhausted(s.now - st.start) {
			return false, s.deadlock("max-cycles")
		}

		// This epoch ends at the next grid barrier, clamped to the
		// budget (clamped and pulled-in barriers are not grid barriers:
		// they exchange traffic but commit nothing).
		from := s.now
		to := st.start + ((from-st.start)/slack+1)*slack
		grid := true
		// Delivery-horizon pull-in: when an L1-bound response is in
		// flight, end the window at its (sound lower bound) arrival
		// cycle instead of the full slack bound, rounded up to the
		// fine grid so barrier positions stay phase-anchored (pause
		// and worker-count determinism). This caps the latency a
		// round trip gains from free-running at relaxFine instead of
		// SlackCycles, which is what keeps cycle deviation flat as
		// slack grows. The horizon is a function of barrier-time
		// machine state only, so the pulled barrier is as
		// deterministic as the grid itself. Banks send straight into
		// the NoC, so it holds every L1-bound message.
		if slack > relaxFine {
			if d := s.Sys.Net.NextL1Arrival(from); d < to {
				if t := st.start + ((max(d, from+1)-1-st.start)/relaxFine+1)*relaxFine; t < to {
					to, grid = t, false
				}
			}
		}
		if budget := st.start + s.Cfg.MaxCycles; to > budget {
			to, grid = budget, false
		}

		// Domain-run phase: every domain free-runs (from, to].
		rx.from = from
		rx.pl.set(rx.pl.domainRun)
		if rx.pool != nil {
			rx.pool.tick(to)
		} else {
			for d := 0; d < domains; d++ {
				s.relaxedDomain(d, to)
			}
		}

		// Epoch barrier: simulate the shared side (NoC + L2 banks +
		// DRAM) cycle-exactly over the window, land the global clock,
		// then (grid barriers only) commit deferred CTA refills in
		// canonical SM order.
		rx.pl.set(rx.pl.exchange)
		injected, held := s.Sys.RelaxedExchange(from, to, &s.eng.Comp)
		rx.pl.set(rx.pl.barrier)
		s.now = to
		s.eng.Relaxed.Epochs++
		s.eng.Relaxed.ExchangedMsgs += uint64(injected)
		s.eng.Relaxed.HeldMsgs += uint64(held)
		if grid {
			for _, sm := range s.SMs {
				sm.CommitFill() // voids the domain's sleep if it refills
			}
		}
		s.Sys.RelaxedFlushObs()

		if err := s.Sys.Err(); err != nil {
			return false, s.attachDump(err)
		}
		if s.done() {
			return false, nil
		}
		if grid {
			if err := s.watchdog(); err != nil {
				return false, err
			}
		}
	}
}

// relaxedDomain runs one SM domain through the published epoch window
// — the pool work function (also called inline when serial).
func (s *Simulator) relaxedDomain(d int, to uint64) {
	rx := s.rx
	rx.pl.set(rx.pl.domainRun)
	s.relaxedRunSM(d, rx.from, to)
}

// relaxedRunSM free-runs SM domain i over (from, to]. Mid-epoch the
// domain is closed — deliveries only land at barriers — so an SM that
// falls asleep here sleeps on until its own wake cycle or the epoch
// end, with its L1 synced to match. A sleep that outlives the epoch
// carries into the next one unless the barrier woke the domain: a
// delivery completed an SM access (L1 responses are processed
// synchronously at Deliver, so the SM is stirred, exactly as in the
// event engine), left the L1 with queued work (non-quiescent), or
// committed a CTA refill (which voids the sleep).
func (s *Simulator) relaxedRunSM(i int, from, to uint64) {
	rx := s.rx
	sm, l1 := s.SMs[i], s.Sys.L1s[i]
	if sm.Asleep() && (sm.Stirred() || !l1.Quiescent()) {
		sm.Wake(from)
	}
	for c := from; c < to; {
		if sm.Asleep() {
			if j := min(to, sm.WakeAt()-1); j > c {
				sm.SleepThrough(j)
				l1.SyncClock(j)
				rx.smSkipped[i] += j - c
				c = j
			}
			if c == to {
				return // asleep through the epoch end
			}
			sm.Wake(c)
		}
		c++
		s.Sys.RelaxedTickL1(i, c)
		sm.Tick(c)
		rx.smTicks[i]++
		// A zero-issue tick can begin a stall (the epoch's last leaves
		// the probe to the next epoch), but a domain sleeps only with
		// its L1 quiet too.
		if c < to && sm.Sleep() && !l1.Quiescent() {
			sm.Wake(c)
		}
	}
}
