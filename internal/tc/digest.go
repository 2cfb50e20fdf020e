package tc

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState implements coherence.StateDigester for a TC L1.
// In-flight store/atomic tables hold only *coherence.Request (a
// callback carrier); their IDs pin occupancy, and their architectural
// content rides in the BusWr/BusAtom messages digested in whatever
// queue currently holds them.
func (l *L1) DigestState(w io.Writer) {
	fmt.Fprintf(w, "tc-l1[%d] now=%d next=%d pend=%d\n", l.smID, l.now, l.nextReqID, l.pending)
	l.array.DigestInto(w)
	l.mshr.DigestInto(w)
	mem.DigestMsgs(w, "outq", l.outQ.Items())
	mem.DigestIDTable(w, "st", l.storesByID)
	mem.DigestIDTable(w, "atom", l.atomicsByID)
}

// DigestState implements coherence.StateDigester for a TC L2 bank.
func (l *L2) DigestState(w io.Writer) {
	fmt.Fprintf(w, "tc-l2[%d] now=%d\n", l.bankID, l.now)
	l.array.DigestInto(w)
	mem.DigestBlockMap(w, l.miss, func(w io.Writer, b mem.BlockAddr, m *l2Miss) {
		fmt.Fprintf(w, "miss %#x", uint64(b))
		if m.filled {
			fmt.Fprintf(w, " d%x", m.data.Words)
		}
		io.WriteString(w, "\n")
		mem.DigestMsgs(w, "wait", m.waiting)
	})
	mem.DigestBlockMap(w, l.blocked, func(w io.Writer, b mem.BlockAddr, msgs []*mem.Msg) {
		fmt.Fprintf(w, "blocked %#x\n", uint64(b))
		mem.DigestMsgs(w, "q", msgs)
	})
	mem.DigestMsgs(w, "inq", l.inQ.Items())
	mem.DigestMsgs(w, "outnoc", l.outNoC.Items())
	mem.DigestMsgs(w, "outdram", l.outDRAM.Items())
}
