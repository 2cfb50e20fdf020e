package gpu

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// DigestState writes a canonical, process-independent rendering of the
// SM: scheduler cursors, every resident warp's execution state
// (including per-thread registers and the RC scoreboard), and the LDST
// unit's in-flight coalesced accesses. Program closures and the
// fetched instruction's address/value funcs cannot be rendered;
// instead the fetched instruction's value fields pin the fetch
// position, and the registers pin everything the program has done —
// deterministic replay reproduces the closures themselves.
func (s *SM) DigestState(w io.Writer) {
	last := -1
	if s.lastIssued != nil {
		last = s.lastIssued.ID
	}
	fmt.Fprintf(w, "sm[%d] now=%d live=%d ctas=%d rr=%d last=%d free=%d\n",
		s.id, s.now, s.liveWarps, s.residentCTAs, s.rr, last, s.freeIDs)
	if s.disp != nil {
		fmt.Fprintf(w, "disp next=%d\n", s.disp.nextCTA)
	}
	for _, wp := range s.warps {
		wp.digestInto(w)
	}
	for _, job := range s.ldst {
		fmt.Fprintf(w, "ldst wp=%d op=%d next=%d\n", job.warp.ID, job.instr.Op, job.next)
		for i := range job.accs {
			acc := &job.accs[i]
			var words [mem.WordsPerBlock]uint32 // a load's access carries none
			if acc.data != nil {
				words = acc.data.Words
			}
			fmt.Fprintf(w, "acc %#x m=%#x n=%d %x\n",
				uint64(acc.block), uint32(acc.mask), acc.n, words)
		}
	}
	fmt.Fprintf(w, "smstats %+v\n", s.stats)
}

func (wp *Warp) digestInto(w io.Writer) {
	fmt.Fprintf(w, "warp %d cta=%d/%d fin=%t bar=%t busy=%d acc=%d st=%d gwct=%d disp=%t regs=%d\n",
		wp.ID, wp.CTA.ID, wp.InCTA, wp.finished, wp.atBarrier, wp.busyUntil,
		wp.pendingAcc, wp.pendingStores, wp.gwct, wp.dispatching, wp.pendingRegs)
	if wp.cur != nil {
		fmt.Fprintf(w, "cur op=%d cyc=%d dst=%d atom=%d src=%d\n",
			wp.cur.Op, wp.cur.Cycles, wp.cur.Dst, wp.cur.Atom, wp.cur.SrcRegs)
	}
	if wp.finished {
		return
	}
	for _, t := range wp.Threads {
		if t == nil {
			continue
		}
		fmt.Fprintf(w, "t%d %x\n", t.Lane, t.Regs)
	}
}
