package gpu

// Quiescence probing for the simulator's cycle-skipping engine.
//
// A stalled SM burns cycles in issue() without changing any warp
// state — but it does advance per-cycle stall counters, and a
// compute-blocked warp wakes at a known future cycle. Quiesce mirrors
// tryIssue's decision tree *without executing anything*: it proves
// that ticking this SM for the next k cycles would (a) issue nothing,
// (b) mutate no warp state, and (c) apply exactly the same per-cycle
// counter deltas every cycle, and reports the earliest cycle at which
// that stops being true. SkipCycles then bulk-applies those k
// identical cycles in O(1). Any state the probe cannot prove inert —
// a fetch that would run (Program.Next mutates program state), an
// instruction that could issue, a busy LDST unit — makes the SM
// non-quiescent and the simulator ticks normally.

// NeverWake marks a stall with no self-scheduled wake-up: the warp
// resumes only when a message arrives (tracked by the memsys
// next-event query), or never.
const NeverWake = ^uint64(0)

// StallProbe is the result of a successful quiescence probe: the
// per-cycle stall-counter deltas ticking would apply, and the earliest
// self-scheduled cycle the SM must actually tick at.
type StallProbe struct {
	// Wake is the earliest compute/fence wake-up (busyUntil, gwct)
	// among stalled warps, or NeverWake.
	Wake uint64
	// Mem / Barrier record issue()'s sawMem/sawBarrier flags, which
	// classify each stalled cycle (Mem wins, as in issue()).
	Mem, Barrier bool
	// FenceStalls is how many warps count FenceStallCycles each cycle.
	FenceStalls uint64
}

// Quiesce reports whether ticking this SM is provably a pure stall
// (or pure idle) with constant per-cycle effects, and if so which.
// It must mirror tryIssue exactly; any divergence breaks the golden
// bit-identity the skip engine is pinned to.
func (s *SM) Quiesce() (StallProbe, bool) {
	p := StallProbe{Wake: NeverWake}
	if len(s.ldst) > 0 {
		// pumpLDST would present an access to the L1 (or at minimum
		// retry a rejected one) — a state change we cannot model here.
		return p, false
	}
	if s.liveWarps == 0 {
		return p, true // the idle fast path: Cycles++ only
	}
	for _, w := range s.warps {
		if w.finished {
			continue
		}
		if w.atBarrier {
			p.Barrier = true
			continue
		}
		if s.now < w.busyUntil {
			// blockedComp: counts toward no stall class; wakes alone.
			p.Wake = min(p.Wake, w.busyUntil)
			continue
		}
		if w.dispatching {
			p.Mem = true // resumes only when the LDST stream restarts
			continue
		}
		if s.cfg.Consistency == SC && (w.pendingAcc > 0 || w.pendingStores > 0) {
			p.Mem = true // resumes on completion delivery
			continue
		}
		if w.cur == nil {
			if w.fetchStalled {
				// The last Next call returned !ready and no completion
				// has landed since: readiness is a pure function of the
				// warp's in-flight accesses (see Program.Next), so the
				// fetch would stall again. Resumes on completion
				// delivery, exactly like a memory stall.
				p.Mem = true
				continue
			}
			return p, false // fetch would run; Program.Next mutates
		}
		instr := w.cur
		if s.cfg.Consistency == RC || s.cfg.Consistency == TSO {
			if !w.RegsReady(instr.SrcRegs...) {
				p.Mem = true
				continue
			}
			if (instr.Op == OpLoad || instr.Op == OpAtomic) && w.pendingReg(instr.Dst) > 0 {
				p.Mem = true
				continue
			}
		}
		if s.cfg.Consistency == TSO {
			if instr.Op != OpStore && w.pendingAcc > 0 {
				p.Mem = true
				continue
			}
			if instr.Op != OpLoad && w.pendingStores > 0 {
				p.Mem = true
				continue
			}
		}
		switch instr.Op {
		case OpFence:
			if w.pendingAcc > 0 || w.pendingStores > 0 {
				p.FenceStalls++
				p.Mem = true
				continue
			}
			if s.now < w.gwct {
				p.FenceStalls++
				p.Mem = true
				p.Wake = min(p.Wake, w.gwct)
				continue
			}
			return p, false // fence would issue
		case OpLoad, OpStore, OpAtomic:
			// Mirror issueMem's non-mutating admission checks; the
			// LDST queue is empty here (checked above), so only the
			// RC in-flight-load bound can block without side effects.
			if s.cfg.Consistency == RC && instr.Op != OpStore &&
				w.pendingAcc >= maxPendingLoads {
				p.Mem = true
				continue
			}
			return p, false // the access would dispatch
		default:
			return p, false // OpComp/OpALU/OpBarrier would issue
		}
	}
	return p, true
}

// SkipCycles bulk-applies k provably identical stalled (or idle)
// cycles, advancing the SM's clock to cycle `to`. p must come from a
// Quiesce call made at cycle to-k with to < p.Wake.
func (s *SM) SkipCycles(to, k uint64, p StallProbe) {
	s.now = to
	s.stats.Cycles += k
	if s.liveWarps == 0 {
		return
	}
	// issue() classifies each zero-issue cycle: Mem wins over Barrier.
	if p.Mem {
		s.stats.MemStallCycles += k
	} else if p.Barrier {
		s.stats.BarrierStallCycles += k
	}
	s.stats.FenceStallCycles += p.FenceStalls * k
}
