package nocoh

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState implements coherence.StateDigester for the BL shim.
func (l *L1Bypass) DigestState(w io.Writer) {
	fmt.Fprintf(w, "bl-l1[%d] now=%d next=%d pend=%d max=%d\n",
		l.smID, l.now, l.nextID, l.pending, l.maxOutstanding)
	mem.DigestMsgs(w, "outq", l.outQ.Items())
	mem.DigestIDTable(w, "req", l.reqByID)
}

// DigestState implements coherence.StateDigester for the non-coherent L1.
func (l *L1Simple) DigestState(w io.Writer) {
	fmt.Fprintf(w, "nocoh-l1[%d] now=%d next=%d pend=%d\n",
		l.smID, l.now, l.nextReqID, l.pending)
	l.array.DigestInto(w)
	l.mshr.DigestInto(w)
	mem.DigestMsgs(w, "outq", l.outQ.Items())
	mem.DigestIDTable(w, "st", l.storesByID)
	mem.DigestIDTable(w, "atom", l.atomicsByID)
}

// DigestState implements coherence.StateDigester for the plain L2 bank.
func (l *L2Plain) DigestState(w io.Writer) {
	fmt.Fprintf(w, "plain-l2[%d] now=%d\n", l.bankID, l.now)
	l.array.DigestInto(w)
	mem.DigestBlockMap(w, l.miss, func(w io.Writer, b mem.BlockAddr, m *plainMiss) {
		fmt.Fprintf(w, "miss %#x\n", uint64(b))
		mem.DigestMsgs(w, "wait", m.waiting)
	})
	mem.DigestMsgs(w, "inq", l.inQ.Items())
	mem.DigestMsgs(w, "outnoc", l.outNoC.Items())
	mem.DigestMsgs(w, "outdram", l.outDRAM.Items())
}
