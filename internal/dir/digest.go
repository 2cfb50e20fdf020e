package dir

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState implements coherence.StateDigester for a directory L1.
func (l *L1) DigestState(w io.Writer) {
	l.Port.DigestState(w)
	l.array.DigestInto(w)
	// Outstanding GetMs: the queued stores are callback carriers, so
	// digest the block and the waiting-store count.
	mem.DigestBlockMap(w, &l.getm, func(w io.Writer, b mem.BlockAddr, p *pendingM) {
		fmt.Fprintf(w, "getm %#x n=%d\n", uint64(b), len(p.stores))
	})
	mem.DigestBlockMap(w, &l.wbInFlight, func(w io.Writer, b mem.BlockAddr, v bool) {
		fmt.Fprintf(w, "wb %#x %t\n", uint64(b), v)
	})
}

// DigestState implements coherence.StateDigester for a directory bank.
func (l *L2) DigestState(w io.Writer) {
	l.Bank.DigestState(w)
	mem.DigestBlockMap(w, &l.busy, func(w io.Writer, b mem.BlockAddr, bs *busyState) {
		fmt.Fprintf(w, "busy %#x", uint64(b))
		for sm := 0; sm < 64; sm++ {
			if t := uint64(1) << uint(sm); bs.targets&t != 0 {
				fmt.Fprintf(w, " %d:%t/%t", sm, bs.done&t != 0, bs.waitWB&t != 0)
			}
		}
		io.WriteString(w, "\n")
		if bs.grant != nil {
			io.WriteString(w, "grant ")
			bs.grant.DigestInto(w)
		}
		mem.DigestMsgs(w, "wait", bs.waiting)
	})
}
