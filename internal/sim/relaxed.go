// The relaxed-synchronization (bounded-slack) cycle engine.
//
// The exact event engine synchronizes every component every cycle (or
// proves whole windows inert before skipping them). This engine — the
// structure of "Parallelizing a modern GPU simulator" (arXiv
// 2502.14691) — instead partitions the machine into domains that
// share no mutable state mid-epoch:
//
//   - one domain per SM: the SM plus its private L1 (SM domains run
//     concurrently on the worker pool when GOMAXPROCS allows);
//   - the shared side — the NoC, every L2 bank, and every DRAM
//     partition — which never runs inside an epoch at all: it is
//     simulated cycle-exactly by the master during the barrier's
//     coupling phase (memsys.RelaxedExchange), in canonical order,
//     which keeps the shared G-TSC reset controller and the
//     functional backing store deterministic without locks.
//
// Each SM domain free-runs up to SlackCycles cycles, capturing every
// outbound NoC injection in a cycle-tagged epoch buffer. At the epoch
// barrier the master replays the whole shared side over the window —
// injecting buffered requests at their tagged cycles, ticking the
// banks so those requests are serviced at their true arrival cycles,
// and putting the responses on the wire within the same window — then
// commits deferred CTA refills in SM order and merges staged
// observations in canonical cycle order. The schedule of every domain
// therefore depends only on its own state and the barrier-delivered
// inputs — never on goroutine interleaving — so a relaxed run is
// deterministic at any worker count, including serial (GOMAXPROCS=1),
// where the same epoch structure is executed inline and still wins by
// amortizing per-cycle engine bookkeeping over whole epochs.
//
// What slack perturbs, and what it cannot (DESIGN.md §7 carries the
// full argument): an SM's outbound request is replayed at its true
// cycle and its response comes back cycle-exactly, but the SM only
// *observes* the response at the next barrier, so each dependent
// round trip stretches by at most one epoch-boundary rounding;
// barrier replay into a full port adds queueing the sender never saw.
// Both are pure added latency on coherence traffic — the same
// perturbation class the chaos fault plans inject deliberately — and
// every protocol here is latency-tolerant by construction, so final
// memory state, workload verification, and coherence invariants are
// preserved exactly while cycle counts drift boundedly. At
// SlackCycles=0 this engine never engages and the golden-pinned
// exact engine runs unchanged.
package sim

import (
	"context"

	"github.com/gtsc-sim/gtsc/internal/gpu"
)

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
	asleep    []bool           // domain slept through its last epoch tail...
	probes    []gpu.StallProbe // ...justified by this probe...
	comps     []uint64         // ...taken at this sm.Completions() count

	// Shared-side (mem) cycle accounting from the barrier exchange
	// (master-owned).
	memTicks   uint64
	memSkipped uint64

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
	s.rx = &relaxedState{
		smTicks:   make([]uint64, n),
		smSkipped: make([]uint64, n),
		asleep:    make([]bool, n),
		probes:    make([]gpu.StallProbe, n),
		comps:     make([]uint64, n),
	}
	return s.rx
}

// runPhaseRelaxed is the epoch loop. Epoch barriers sit on a fixed
// grid — multiples of SlackCycles from the phase start — so barrier
// positions are a function of machine state, never of scheduling.
// A pause (RunUntil stopAt) that lands mid-window clamps the current
// epoch to the stop cycle, inserting an extra exchange — an extra
// observation point — which perturbs the trajectory from there on in
// the same bounded, functionally-invisible way slack itself does
// (TestRelaxedPauseFunctionalEquivalence). Resuming continues the
// suspended trajectory exactly; checkpoint restore reproduces it by
// replaying the recorded pause schedule (Checkpoint.PauseCycles).
func (s *Simulator) runPhaseRelaxed(ctx context.Context, stopAt uint64) (bool, error) {
	st := s.cur
	rx := s.ensureRelaxed()
	slack := s.Cfg.SlackCycles

	// Relaxed phases never drain the wake agenda, so the ingress hooks
	// must be inert.
	s.Sys.SetComponentWakes(false)
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
		s.eng.Relaxed.MemDomainCycles += rx.memTicks
		s.eng.Relaxed.MemDomainSkipped += rx.memSkipped
		rx.memTicks, rx.memSkipped = 0, 0
	}()

	domains := len(s.SMs) // the shared side runs at the barrier, not in the pool
	workers := s.effectiveWorkers()
	if workers > 1 {
		rx.pool = newWorkPool(domains, workers, s.relaxedDomain)
		defer func() {
			rx.pool.shutdown()
			rx.pool = nil
		}()
	}
	s.eng.Workers = workers
	s.eng.Relaxed.SlackCycles = slack
	if s.eng.Relaxed.DomainEpochs == nil {
		// +1: the final entry counts barrier exchanges that ticked the
		// shared mem side at least once.
		s.eng.Relaxed.DomainEpochs = make([]uint64, domains+1)
	}
	rx.pl = s.newPhaseLabels()
	defer rx.pl.clear()

	for {
		if stopAt != 0 && s.now >= stopAt {
			return true, nil
		}
		if ctx.Err() != nil {
			return true, s.canceled(ctx, "run")
		}
		if s.budgetExhausted(s.now - st.start) {
			return false, s.deadlock(st.kernel.Name, "run", "max-cycles", s.now-st.lastProgress)
		}

		// This epoch ends at the next grid barrier, clamped to the
		// budget and the pause point (clamped barriers are not grid
		// barriers: they exchange traffic but commit nothing).
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
		// deterministic as the grid itself.
		if slack > relaxFine {
			if d := s.Sys.RelaxedDeliveryHorizon(from); d < to {
				if t := st.start + ((max(d, from+1)-1-st.start)/relaxFine+1)*relaxFine; t < to {
					to, grid = t, false
				}
			}
		}
		if budget := st.start + s.Cfg.MaxCycles; to > budget {
			to, grid = budget, false
		}
		if stopAt != 0 && to > stopAt {
			to, grid = stopAt, false
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
		injected, held, mticks, mskipped := s.Sys.RelaxedExchange(from, to)
		rx.pl.set(rx.pl.barrier)
		s.now = to
		s.eng.Relaxed.Epochs++
		s.eng.Relaxed.ExchangedMsgs += uint64(injected)
		s.eng.Relaxed.HeldMsgs += uint64(held)
		rx.memTicks += mticks
		rx.memSkipped += mskipped
		if mticks > 0 {
			s.eng.Relaxed.DomainEpochs[len(s.SMs)]++
		}
		if grid {
			for i, sm := range s.SMs {
				if sm.PendingFill() {
					// New CTAs invalidate the domain's stall probe.
					rx.asleep[i] = false
					sm.CommitFill()
				}
			}
		}
		s.Sys.RelaxedFlushObs()

		if err := s.Sys.Err(); err != nil {
			return false, s.attachDump(err)
		}
		if s.done() {
			return false, nil
		}
		if grid && !s.Cfg.DisableWatchdog {
			if sig := s.progressSig(); sig != st.lastSig {
				st.lastSig = sig
				st.lastProgress = s.now
			} else if s.now-st.lastProgress >= s.Cfg.WatchdogWindow {
				return false, s.deadlock(st.kernel.Name, "run", "no-forward-progress", s.now-st.lastProgress)
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
// domain is closed — deliveries only land at barriers — so a stall
// probe taken here stays valid until its wake cycle or the epoch end.
// A probe that outlives the epoch (asleep) stays valid into the next
// epoch unless the barrier woke the domain: a delivery completed an
// SM access (L1 responses are processed synchronously at Deliver, so
// the signal is sm.Completions() moving, exactly as in the event
// engine), left the L1 with queued work (non-quiescent), or committed
// a CTA refill (checked at the barrier itself).
func (s *Simulator) relaxedRunSM(i int, from, to uint64) {
	rx := s.rx
	sm, l1 := s.SMs[i], s.Sys.L1s[i]
	c := from
	if rx.asleep[i] {
		rx.asleep[i] = false
		if l1.Quiescent() && sm.Completions() == rx.comps[i] {
			// The barrier delivered nothing: the carried probe still
			// holds. Jump straight to its wake (or the epoch end).
			p := rx.probes[i]
			j := to
			if p.Wake-1 < j {
				j = p.Wake - 1
			}
			if j > c {
				sm.SkipCycles(j, j-c, p)
				l1.SyncClock(j)
				rx.smSkipped[i] += j - c
				c = j
			}
			if c >= to {
				rx.asleep[i] = true // slept through the whole epoch
				return
			}
		}
	}
	s.eng.Relaxed.DomainEpochs[i]++
	st := sm.Stats()
	for c < to {
		c++
		s.Sys.RelaxedTickL1(i, c)
		act := st.ActiveCycles
		sm.Tick(c)
		rx.smTicks[i]++
		if c >= to {
			break
		}
		// Stall-onset gate, as in the event engine: only a zero-issue
		// tick can begin a stall, so the warp-scanning probe is not
		// worth attempting while the SM is issuing.
		if st.ActiveCycles != act {
			continue
		}
		if !l1.Quiescent() {
			continue
		}
		p, ok := sm.Quiesce()
		if !ok {
			continue
		}
		j := to
		if p.Wake-1 < j {
			j = p.Wake - 1
		}
		if j <= c {
			continue
		}
		sm.SkipCycles(j, j-c, p)
		l1.SyncClock(j)
		rx.smSkipped[i] += j - c
		if j >= to {
			// The probe outlives the epoch: carry the sleep across the
			// barrier so the next epoch can fast-path.
			rx.asleep[i] = true
			rx.probes[i] = p
			rx.comps[i] = sm.Completions()
		}
		c = j
	}
}
