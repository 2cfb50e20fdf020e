package sim

import (
	"fmt"
	"hash/fnv"
	"io"
)

// phaseName names the execution phase: "idle" between kernels, or
// "run"/"drain" while a kernel is in flight or paused.
func (s *Simulator) phaseName() string {
	if s.cur == nil {
		return "idle"
	}
	if s.cur.phase == phaseRun {
		return "run"
	}
	return "drain"
}

// StateDigest hashes the machine's canonical state rendering with
// FNV-1a. Equal digests (given equal configurations) mean equal
// machine state: every architectural and microarchitectural bit that
// influences future behavior — warp registers, cache lines with
// timestamp/lease metadata, MSHRs, queues, event queues, RNG position —
// feeds the hash through a rendering that contains no pointer or
// func values and no unordered map iteration. It is the engine
// equivalence oracle: a machine paused on the event engine must digest
// equal to the same machine paused in serial tick order. The machine must be
// quiescent or paused (never mid-Tick); any point where RunUntil or
// Resume has returned qualifies.
func (s *Simulator) StateDigest() uint64 {
	h := fnv.New64a()
	s.DigestState(h)
	return h.Sum64()
}

// DigestState writes the canonical state rendering: the engine's own
// coordinate (clock, phase and its start, watchdog sampling state),
// every SM, and the whole memory system.
func (s *Simulator) DigestState(w io.Writer) {
	fmt.Fprintf(w, "sim now=%d done=%d phase=%s\n", s.now, s.kernelsDone, s.phaseName())
	if st := s.cur; st != nil {
		fmt.Fprintf(w, "cur %s start=%d sig=%d prog=%d\n",
			st.kernel.Name, st.start, st.lastSig, st.lastProgress)
		if st.run != nil {
			fmt.Fprintf(w, "run %+v\n", *st.run)
		}
	}
	for _, sm := range s.SMs {
		sm.DigestState(w)
	}
	s.Sys.DigestState(w)
}
