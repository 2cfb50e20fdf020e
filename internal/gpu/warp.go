package gpu

// Warp is one SIMT execution context resident on an SM.
type Warp struct {
	ID    int // warp slot within the SM
	CTA   *CTA
	InCTA int // warp index within the CTA

	Threads [WarpWidth]*Thread

	// lanes and regs back Threads and their registers for the contexts
	// an SM builds, so one warp is three allocations (itself, regs,
	// pendingRegs) and a recycled one none (see SM.warpContext).
	lanes [WarpWidth]Thread
	regs  []uint32

	prog Program
	cur  *Instr // fetched, not yet completed/consumed

	// fetchStalled records that the last Program.Next call returned
	// !ready and no memory completion has landed on this warp since
	// (noteCompletion clears it). While set, the fetch is provably
	// still blocked, so the quiescence probe may classify the warp as
	// memory-stalled without re-running Next.
	fetchStalled bool

	finished  bool
	atBarrier bool
	busyUntil uint64 // OpComp completion time

	// Memory tracking.
	pendingAcc    int    // in-flight accesses of blocking ops (loads under SC/RC)
	pendingStores int    // stores issued but not yet acknowledged
	pendingRegs   []int  // per-register in-flight load count (RC scoreboard)
	gwct          uint64 // max GWCT of this warp's stores (TC-Weak)

	// dispatching marks a memory instruction currently streaming its
	// coalesced accesses through the LDST unit.
	dispatching bool

	// reclaim marks a context whose CTA has left the SM while some of
	// its accesses are still in flight; the last completion hands it to
	// the SM's spare list (see SM.retire).
	reclaim bool
}

// Reg returns lane's register idx (helper for data-dependent programs).
func (w *Warp) Reg(lane, idx int) uint32 { return w.Threads[lane].Regs[idx] }

// RegsReady reports whether no in-flight load targets any of regs —
// programs use it from Next to decide whether a data-dependent branch
// can be resolved yet.
func (w *Warp) RegsReady(regs ...int) bool {
	for _, r := range regs {
		if w.pendingReg(r) > 0 {
			return false
		}
	}
	return true
}

// pendingReg returns the in-flight load count targeting register r.
func (w *Warp) pendingReg(r int) int {
	if r < len(w.pendingRegs) {
		return w.pendingRegs[r]
	}
	return 0
}

// addPendingReg adjusts the in-flight load count for register r,
// growing the scoreboard on first use of a high register index.
func (w *Warp) addPendingReg(r, delta int) {
	for r >= len(w.pendingRegs) {
		w.pendingRegs = append(w.pendingRegs, 0)
	}
	w.pendingRegs[r] += delta
}

// Finished reports whether the warp has retired.
func (w *Warp) Finished() bool { return w.finished }

// CTA is one resident thread block.
type CTA struct {
	ID        int
	Warps     []*Warp
	atBarrier int
	finished  int
}

// barrierRelease checks whether every live warp of the CTA reached the
// barrier and, if so, releases them. Finished warps do not count
// toward the barrier (as in CUDA, exited threads drop out of
// __syncthreads).
func (c *CTA) barrierRelease() bool {
	if c.atBarrier+c.finished < len(c.Warps) {
		return false
	}
	for _, w := range c.Warps {
		if w.atBarrier {
			w.atBarrier = false
			w.cur = nil // barrier consumed
		}
	}
	c.atBarrier = 0
	return true
}
