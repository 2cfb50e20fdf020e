// Package nocoh implements the paper's two non-coherent reference
// configurations:
//
//   - BL ("baseline"): the private L1 is disabled outright and every
//     coalesced access crosses the NoC to the shared L2 — how current
//     GPUs provide coherence by construction (§I), and the
//     configuration every figure normalizes to. Matching the paper's
//     own BL implementation, there are no L1 tags to check and no L1
//     MSHRs: each access becomes its own NoC request (§VI-A).
//   - Baseline-w/L1: a plain non-coherent write-through L1 (lines stay
//     valid until evicted). Only meaningful for the benchmark set that
//     does not require coherence (right cluster of Fig 12).
//
// Both run over L2Plain, a shared cache with no coherence metadata.
package nocoh

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

func bankOf(b mem.BlockAddr, nBanks int) int { return int(uint64(b) % uint64(nBanks)) }

// L1Bypass is the BL configuration's "L1": a pass-through shim that
// turns every access into an L2 request. It implements coherence.L1.
type L1Bypass struct {
	smID    int
	nBanks  int
	now     uint64
	send    coherence.Sender
	outQ    mem.MsgQueue
	pool    mem.Pool  // recycles the requests it sends and responses it consumes
	loadOut mem.Block // masked-word scratch handed to load completions
	stats   stats.L1Stats
	obs     coherence.Observer
	reqByID map[uint64]*coherence.Request
	nextID  uint64
	pending int
	// maxOutstanding bounds in-flight accesses so the shim exerts the
	// same finite buffering a real LDST path would (default 64).
	maxOutstanding int
	fail           *diag.ProtocolError
}

// NewL1Bypass builds the BL shim for SM smID.
func NewL1Bypass(smID, nBanks int, send coherence.Sender, obs coherence.Observer) *L1Bypass {
	return &L1Bypass{
		smID: smID, nBanks: nBanks, send: send, obs: obs,
		reqByID: make(map[uint64]*coherence.Request), maxOutstanding: 64,
	}
}

// Stats implements coherence.L1.
func (l *L1Bypass) Stats() *stats.L1Stats { return &l.stats }

// Pending implements coherence.L1.
func (l *L1Bypass) Pending() int { return l.pending }

// Quiescent implements coherence.L1: Tick only drains outQ, so an
// empty output queue means ticking is a pure no-op until new input.
func (l *L1Bypass) Quiescent() bool { return l.outQ.Empty() }

// Flush implements coherence.L1 (nothing cached, nothing to do).
func (l *L1Bypass) Flush() {}

// failf records the first protocol violation; the shim then drops
// further input until the simulator surfaces the error.
func (l *L1Bypass) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("bl-l1[%d]", l.smID), event, format, args...)
	}
}

// Err implements coherence.L1.
func (l *L1Bypass) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L1.
func (l *L1Bypass) DumpState() diag.CacheState {
	return diag.CacheState{
		Name: "bl-l1", ID: l.smID, Pending: l.pending,
		MSHRUsed: len(l.reqByID), MSHRCap: l.maxOutstanding, OutQ: l.outQ.Len(),
	}
}

// Access implements coherence.L1.
func (l *L1Bypass) Access(req *coherence.Request) coherence.AccessResult {
	if l.pending >= l.maxOutstanding {
		l.stats.MSHRStalls++
		return coherence.Reject
	}
	l.nextID++
	l.reqByID[l.nextID] = req
	l.pending++
	msg := l.pool.Msg()
	*msg = mem.Msg{
		Block: req.Block, Src: l.smID, Dst: bankOf(req.Block, l.nBanks),
		ReqID: l.nextID, Warp: req.Warp,
	}
	if req.Atomic {
		l.stats.Atomics++
		msg.Type = mem.BusAtom
		msg.Mask = req.Mask
		msg.Atom = req.Atom
		mem.Merge(msg.Payload(), req.Data, req.Mask)
	} else if req.Store {
		l.stats.Stores++
		msg.Type = mem.BusWr
		msg.Mask = req.Mask
		mem.Merge(msg.Payload(), req.Data, req.Mask)
	} else {
		l.stats.Loads++
		l.stats.MissCold++ // every access crosses the NoC
		msg.Type = mem.BusRd
		// The mask rides along so the L2 can observe the load with the
		// words it actually returns (value binds at the L2 under BL).
		msg.Mask = req.Mask
	}
	l.outQ.Post(l.send, msg)
	return coherence.Pending
}

// Deliver implements coherence.L1. The response is consumed once the
// access's Done callback returns, so the message recycles here.
func (l *L1Bypass) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	l.complete(msg)
	l.pool.PutMsg(msg)
}

func (l *L1Bypass) complete(msg *mem.Msg) {
	req, ok := l.reqByID[msg.ReqID]
	if !ok {
		l.failf("unknown-response", "response %v req=%d block=%v has no pending request", msg.Type, msg.ReqID, msg.Block)
		return
	}
	delete(l.reqByID, msg.ReqID)
	l.pending--
	switch msg.Type {
	case mem.BusFill:
		l.stats.Fills++
		out := &l.loadOut
		*out = mem.Block{}
		mem.Merge(out, msg.Data, req.Mask)
		// Loads are observed at the L2, where their value binds; the
		// shim only delivers the completion.
		req.Done(coherence.Completion{Data: out})
	case mem.BusWrAck:
		l.stats.WriteAcks++
		req.Done(coherence.Completion{})
	case mem.BusAtomAck:
		req.Done(coherence.Completion{Data: msg.Data})
	default:
		l.failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
}

// SyncClock implements coherence.L1.
func (l *L1Bypass) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L1.
func (l *L1Bypass) Tick(now uint64) {
	l.now = now
	l.outQ.Drain(l.send)
}
