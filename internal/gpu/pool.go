package gpu

import (
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// accGroup owns every allocation of one memory instruction's trip
// through the LDST unit: the coalesced accesses, their shared
// lane-target backing (loads and atomics) and data blocks (stores and
// atomics), the request records handed to the L1, and the memJob that
// streams them. Groups are pooled per SM and recycled once
// the instruction has fully dispatched AND every access has completed,
// so steady-state memory issue is allocation-free.
//
// Recycle safety: a group's arrays are referenced by (a) the memJob
// while accesses are still streaming and (b) each access's completion
// record until its Done callback has run. live counts both — one per
// access plus one for the streaming job — and only the final release
// returns the group to the pool. Controllers never use a *Request or a
// Completion.Data after Done returns (that is part of the coherence
// contract), so nothing can observe a recycled group. The pool itself
// is owned by the SM: under relaxed sync it is touched during the
// epoch (issue and synchronous-hit completions, on the SM domain's
// goroutine) and during the barrier exchange (asynchronous
// completions, on the master goroutine); the epoch barrier orders
// those accesses, so no lock is needed.
type accGroup struct {
	sm    *SM
	job   memJob
	accs  []coalesced
	lanes []laneTarget
	data  []mem.Block
	recs  []*reqRec
	live  int
}

// reqRec is one access's pooled request record: the Request handed to
// the L1 plus the completion context its Done callback needs. done is
// bound to complete once, when the record is created, so re-dispatch
// costs no closure allocation.
type reqRec struct {
	group *accGroup
	req   coherence.Request
	done  func(coherence.Completion)

	w     *Warp
	lanes []laneTarget
	dst   int
	op    Op
	atom  mem.AtomicOp
}

// getGroup pops a recycled group or builds a fresh one.
func (s *SM) getGroup() *accGroup {
	if n := len(s.groupPool); n > 0 {
		g := s.groupPool[n-1]
		s.groupPool = s.groupPool[:n-1]
		return g
	}
	return &accGroup{sm: s}
}

// putGroup clears the group's per-instruction references (so a pooled
// group never pins a retired warp's memory) and returns it to the
// pool. The coalesced array itself holds no foreign pointers — its
// lane lists and data blocks alias the group's own backing — so it
// needs no clearing.
func (g *accGroup) putGroup() {
	for _, r := range g.recs {
		r.w = nil
		r.lanes = nil
		r.req = coherence.Request{}
	}
	g.job = memJob{}
	s := g.sm
	s.groupPool = append(s.groupPool, g)
}

// release drops one reference (a completed access or the fully
// dispatched job) and recycles the group at zero.
func (g *accGroup) release() {
	g.live--
	if g.live == 0 {
		g.putGroup()
	}
}

// rec returns the i-th request record, growing the stable pointer list
// on first use. Records are allocated once per slot and keep their
// prebound Done closure across recycles.
func (g *accGroup) rec(i int) *reqRec {
	for len(g.recs) <= i {
		r := &reqRec{group: g}
		r.done = r.complete
		g.recs = append(g.recs, r)
	}
	return g.recs[i]
}

// complete is the Done callback for every pooled access; it reproduces
// exactly the per-op completion the LDST unit used to install as a
// fresh closure per dispatch: scatter loaded words (with the AtomAdd
// prefix reconstruction for atomics), release the warp's trackers,
// fold in the GWCT, and bump the SM's completion counter.
func (r *reqRec) complete(c coherence.Completion) {
	w := r.w
	s := r.group.sm
	switch r.op {
	case OpAtomic:
		for _, lt := range r.lanes {
			old := c.Data.Words[lt.word]
			if r.atom == mem.AtomAdd {
				old += lt.prefix
			}
			w.Threads[lt.lane].Regs[r.dst] = old
		}
		w.pendingAcc--
		w.addPendingReg(r.dst, -1)
		if c.GWCT > w.gwct {
			w.gwct = c.GWCT
		}
	case OpStore:
		w.pendingStores--
		if c.GWCT > w.gwct {
			w.gwct = c.GWCT
		}
	default: // OpLoad
		for _, lt := range r.lanes {
			w.Threads[lt.lane].Regs[r.dst] = c.Data.Words[lt.word]
		}
		w.pendingAcc--
		w.addPendingReg(r.dst, -1)
	}
	s.noteCompletion(w)
	if w.reclaim {
		// A retired context waiting out its accesses (see SM.retire).
		w.reclaim = false
		s.retire(w)
	}
	r.group.release()
}
