package tc

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState implements coherence.L1 for a TC L1.
func (l *L1) DigestState(w io.Writer) {
	l.Port.DigestState(w)
	l.array.DigestInto(w)
}

// DigestState implements coherence.L2 for a TC L2 bank.
func (l *L2) DigestState(w io.Writer) {
	l.Bank.DigestState(w)
	mem.DigestBlockMap(w, &l.blocked, func(w io.Writer, b mem.BlockAddr, msgs []*mem.Msg) {
		fmt.Fprintf(w, "blocked %#x\n", uint64(b))
		mem.DigestMsgs(w, "q", msgs)
	})
}
