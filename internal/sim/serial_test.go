package sim

import (
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// serialStep executes one cycle in the serial tick order the event
// engine's dispatch must reproduce: the whole hierarchy
// (memsys.System.Tick), then every SM in index order, then the fault
// plan's rollover schedule (run phase only) — no cycle skipped, no
// component asleep. It then does the engine's per-cycle bookkeeping
// (error check, end of the run phase, watchdog sampling) at the points
// the event engine does it, so the whole machine state, the engine's
// coordinate included, matches the event engine's at every cycle
// boundary.
func (s *Simulator) serialStep() error {
	st := s.cur
	s.now++
	s.Sys.Tick(s.now)
	if st.phase == phaseRun {
		for _, sm := range s.SMs {
			sm.Tick(s.now)
		}
		s.Sys.TickRollover(s.now)
	}
	if err := s.Sys.Err(); err != nil {
		return s.attachDump(err)
	}
	if st.phase == phaseRun && s.done() {
		return s.endRunPhase()
	}
	if s.now&63 == 0 {
		if err := s.watchdog(); err != nil {
			return err
		}
	}
	return nil
}

// SerialRunUntil is RunUntil (or, with a kernel in flight, Resume) in
// serial tick order: it completes the kernel, or pauses once the
// global clock reaches stopAt (0 = never) at the same coordinate the
// event engine pauses at. Tests use it as the reference schedule for
// whole workloads; the wake property tests step serialStep directly.
func (s *Simulator) SerialRunUntil(kernel *gpu.Kernel, stopAt uint64) (*stats.Run, bool, error) {
	if s.cur == nil {
		s.beginKernel(kernel)
	}
	for {
		// A drained kernel completes before the stop check, as
		// runPhaseEvent's drain phase does.
		if s.cur.phase == phaseDrain && s.Sys.Drained() {
			break
		}
		if stopAt != 0 && s.now >= stopAt {
			return nil, true, nil
		}
		if err := s.serialStep(); err != nil {
			return nil, false, err
		}
	}
	run := s.cur.run
	s.cur = nil
	s.kernelsDone++
	return run, false, nil
}
