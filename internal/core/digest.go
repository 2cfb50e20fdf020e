package core

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState implements coherence.L1: a canonical,
// process-independent rendering of the G-TSC L1's complete state.
// Pending-store records carry the access's completion callback via
// their *coherence.Request; the request pointer is skipped and every
// architectural field of the record (data, mask, lock accounting) is
// rendered by value — replay reproduces the callbacks.
func (l *L1) DigestState(w io.Writer) {
	l.Port.DigestState(w)
	fmt.Fprintf(w, "epoch=%d out=%d floor=%d\nwarpts %d\n", l.epoch, l.reqsOut, l.epochFloor, l.warpTS)
	l.array.DigestInto(w)
	for _, id := range l.storesByID.Keys() {
		ps, _ := l.storesByID.Get(id)
		fmt.Fprintf(w, "st %d %#x wp=%d m=%#x hit=%t %x\n",
			ps.reqID, uint64(ps.block), ps.warp, uint32(ps.mask), ps.lineHit, ps.data.Words)
	}
	// storesByBlock holds the same records in per-block send order;
	// digest the order, not the records again.
	mem.DigestBlockMap(w, &l.storesByBlock, func(w io.Writer, b mem.BlockAddr, stores []*pendingStore) {
		fmt.Fprintf(w, "stblk %#x", uint64(b))
		for _, ps := range stores {
			fmt.Fprintf(w, " %d", ps.reqID)
		}
		io.WriteString(w, "\n")
	})
}

// DigestState implements coherence.L2 for a G-TSC L2 bank.
func (l *L2) DigestState(w io.Writer) {
	l.Bank.DigestState(w)
	fmt.Fprintf(w, "memts=%d epoch=%d\n", l.memTS, l.epoch)
}
