package memsys

import (
	"fmt"
	"io"
)

// DigestState writes a canonical, process-independent rendering of the
// whole memory system: the architected store image, every controller's
// microarchitectural state, the interconnect, the DRAM partitions, the
// overflow-reset epoch and the fault machinery (held messages and the
// injector's RNG position). Two equal digests from different processes
// imply the same memory-system state and the same future behavior.
func (s *System) DigestState(w io.Writer) {
	io.WriteString(w, "store\n")
	s.Store.DigestInto(w)
	for _, l1 := range s.L1s {
		l1.DigestState(w)
	}
	for _, l2 := range s.L2s {
		l2.DigestState(w)
	}
	s.Net.DigestState(w)
	for _, p := range s.Parts {
		p.DigestState(w)
	}
	if s.Resets != nil {
		fmt.Fprintf(w, "resets epoch=%d count=%d\n", s.Resets.Epoch(), s.Resets.Resets())
	}
	if s.inj != nil {
		fmt.Fprintf(w, "rng %#x rollover=%d\n", s.inj.RNGState(), s.inj.NextRollover())
	}
	for _, sh := range s.shims {
		sh.DigestState(w)
	}
}
