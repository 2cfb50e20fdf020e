package gpu

// Stall probing and the SM's sleep record, for the simulator's engines.
//
// A stalled SM burns cycles in issue() without changing any warp
// state — but it does advance per-cycle stall counters, and a
// compute-blocked warp wakes at a known future cycle. Quiesce classifies
// every warp with the same two predicates tryIssue runs before it
// executes anything (fetchBlock, then instrBlock on the fetched
// instruction), so it proves without executing anything that ticking
// this SM for the next k cycles would (a) issue nothing, (b) mutate no
// warp state, and (c) apply exactly the same per-cycle counter deltas
// every cycle, and it reports the earliest cycle at which that stops
// being true. Any state the predicates cannot prove inert — a fetch
// that would run (Program.Next mutates program state), an instruction
// that could issue, an LDST head the L1 could accept — makes the SM
// non-quiescent and the engine ticks it normally.
//
// A parked head is inert. When the L1 rejected the LDST head's last
// presentation and no Deliver has reached the L1 since, every further
// presentation would be rejected too: only a delivery can turn a
// reject into an accept (coherence.Reject). So the LDST unit does not
// present a parked head again until a delivery: the stall costs the
// L1 one rejected presentation, not one per cycle of a full MSHR. An
// SM whose head is parked and whose warps all stall sleeps until a
// Deliver into its own L1 (Stirred) or its own wake cycle (WakeAt).
//
// The SM keeps its own sleep record: whether its last Tick issued, and,
// once it falls asleep, the probe and the completion count it was taken
// at. Both engines drive it through Sleep, Asleep, Stirred, WakeAt,
// SleepThrough and Wake, which bulk-apply the probe's identical stall
// cycles to the SM's own counters in O(1). Assigning CTAs voids the
// record (FillOne, CommitFill): new warps end any stall the probe
// proved.

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
func (s *SM) Quiesce() (StallProbe, bool) {
	p := StallProbe{Wake: NeverWake}
	if len(s.ldst) > 0 && !s.parked() {
		return p, false // pumpLDST would present the head
	}
	if s.liveWarps == 0 {
		return p, true // the idle fast path: Cycles++ only
	}
	for _, w := range s.warps {
		if w.finished {
			continue
		}
		r := s.fetchBlock(w)
		if r == notBlocked {
			if w.cur == nil {
				if !w.fetchStalled {
					return p, false // fetch would run; Program.Next mutates
				}
				// The last Next call returned !ready and no completion
				// has landed since: readiness is a pure function of the
				// warp's in-flight accesses (see Program.Next), so the
				// fetch would stall again, exactly like a memory stall.
				r = blockedMem
			} else {
				r = s.instrBlock(w, w.cur)
			}
		}
		switch r {
		case notBlocked:
			return p, false // the instruction would issue
		case blockedBarrier:
			p.Barrier = true
		case blockedComp:
			// Counts toward no stall class; wakes alone.
			p.Wake = min(p.Wake, w.busyUntil)
		case blockedGWCT:
			p.Wake = min(p.Wake, w.gwct)
			fallthrough
		case blockedFence:
			p.FenceStalls++
			fallthrough
		case blockedMem:
			p.Mem = true // resumes on completion delivery
		}
	}
	return p, true
}

// Sleep puts the SM to sleep after a Tick that issued nothing, when
// Quiesce proves the stall pure. It reports whether the SM fell asleep.
// A zero-issue tick scanned every warp without issuing, so the probe's
// view is exactly that tick's; after an issuing tick the warp-scanning
// probe is not worth attempting, and Sleep inlines to that check.
func (s *SM) Sleep() bool { return !s.issued && s.sleep() }

func (s *SM) sleep() bool {
	p, ok := s.Quiesce()
	if ok {
		s.asleep, s.probe, s.sleptAt = true, p, s.completions
	}
	return ok
}

// Asleep reports whether the SM is asleep.
func (s *SM) Asleep() bool { return s.asleep }

// Stirred reports whether a memory completion has landed on the SM's
// warps since it fell asleep, or, with its LDST head parked, whether a
// Deliver has reached its L1. Every change to warp readiness that can
// originate outside the SM's own tick flows through a completion
// callback (register writeback, pending-store retirement, GWCT
// advance), and only a delivery can make the L1 accept the parked
// head, so a stirred SM must tick again. An asleep SM with a queued
// LDST head fell asleep with it parked (Quiesce).
func (s *SM) Stirred() bool {
	return s.completions != s.sleptAt || len(s.ldst) > 0 && !s.parked()
}

// WakeAt is the sleeping SM's own wake cycle (a compute or GWCT wake-up
// of one of its warps), or NeverWake.
func (s *SM) WakeAt() uint64 { return s.probe.Wake }

// SleepThrough bulk-applies the sleeping SM's stall cycles through
// cycle to, which must lie before WakeAt and before any cycle that
// stirs it, and leaves it asleep. It touches only the SM's own
// counters. It returns the number of cycles applied.
func (s *SM) SleepThrough(to uint64) uint64 {
	k := to - s.now
	s.now = to
	s.stats.Cycles += k
	// issue() classifies each zero-issue cycle: Mem wins over Barrier.
	if s.probe.Mem {
		s.stats.MemStallCycles += k
	} else if s.probe.Barrier {
		s.stats.BarrierStallCycles += k
	}
	s.stats.FenceStallCycles += s.probe.FenceStalls * k
	return k
}

// Wake applies a sleeping SM's stall cycles through cycle to and wakes
// it; the SM's next Tick is at to+1. It returns the number of cycles
// applied (0 for an SM that was awake).
func (s *SM) Wake(to uint64) uint64 {
	if !s.asleep {
		return 0
	}
	s.asleep = false
	return s.SleepThrough(to)
}
