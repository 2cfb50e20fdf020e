package sim

import (
	"fmt"
	"hash/fnv"
	"io"
)

// Snapshot is the checkpoint coordinate of a simulator: where the
// machine stands (cycle, completed kernels, execution phase) and an
// FNV-1a digest of its complete state. The digest is canonical and
// process-independent, so a fresh process that deterministically
// replays the same workload to the same cycle computes the same
// digest — which is exactly how checkpoint restore verifies itself
// (see internal/checkpoint).
type Snapshot struct {
	// Cycle is the global clock: the machine has executed exactly this
	// many cycles since construction.
	Cycle uint64
	// KernelsDone counts kernels run to completion.
	KernelsDone int
	// Phase is "idle" between kernels, or "run"/"drain" while a kernel
	// is paused mid-execution.
	Phase string
	// Digest is the FNV-1a hash of the machine's canonical state
	// rendering.
	Digest uint64
}

// Snapshot captures the simulator's current coordinate and state
// digest. The machine must be quiescent or paused (never mid-Tick);
// any point where RunUntil or Resume has returned qualifies.
func (s *Simulator) Snapshot() Snapshot {
	return Snapshot{
		Cycle:       s.now,
		KernelsDone: s.kernelsDone,
		Phase:       s.phaseName(),
		Digest:      s.StateDigest(),
	}
}

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
// func values and no unordered map iteration.
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
