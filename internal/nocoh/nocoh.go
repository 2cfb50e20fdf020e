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
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// L1Bypass is the BL configuration's "L1": a pass-through shim that
// turns every access into an L2 request. It implements coherence.L1.
type L1Bypass struct {
	coherence.Port
	// maxOutstanding bounds in-flight accesses so the shim exerts the
	// same finite buffering a real LDST path would (default 64).
	maxOutstanding int
}

// NewL1Bypass builds the BL shim for SM smID. It observes nothing:
// loads are observed at the L2, where their value binds.
func NewL1Bypass(smID, nBanks int, send coherence.Sender) *L1Bypass {
	return &L1Bypass{Port: coherence.NewPort("bl-l1", smID, nBanks, 0, send, nil), maxOutstanding: 64}
}

// Flush implements coherence.L1 (nothing cached, nothing to do).
func (l *L1Bypass) Flush() {}

// Access implements coherence.L1.
func (l *L1Bypass) Access(req *coherence.Request) coherence.AccessResult {
	if l.Pending() >= l.maxOutstanding {
		l.Counters.MSHRStalls++
		return coherence.Reject
	}
	t := mem.BusRd
	switch {
	case req.Atomic:
		l.Counters.Atomics++
		t = mem.BusAtom
	case req.Store:
		l.Counters.Stores++
		t = mem.BusWr
	default:
		// Every load crosses the NoC; its mask rides along so the L2
		// observes the words it actually returns.
		l.Counters.Loads++
		l.Counters.MissCold++
	}
	l.Issue(t, req)
	return coherence.Pending
}

// Deliver implements coherence.L1. The response is consumed once the
// access's Done callback returns, so the message recycles here.
func (l *L1Bypass) Deliver(msg *mem.Msg) {
	if !l.Receive() {
		return
	}
	switch msg.Type {
	case mem.BusFill:
		l.Counters.Fills++
		if req := l.Take(msg, "unknown-response"); req != nil {
			l.CompleteLoad(req, msg.Data, 0, 0)
		}
	case mem.BusWrAck:
		l.Counters.WriteAcks++
		l.Ack(msg, "unknown-response", coherence.Completion{})
	case mem.BusAtomAck:
		l.Ack(msg, "unknown-response", coherence.Completion{Data: msg.Data})
	default:
		l.Failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	l.Free(msg)
}
