package nocoh

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// L1Simple is the Baseline-w/L1 configuration: a conventional
// write-through, write-no-allocate L1 with MSHR merging and no
// coherence whatsoever — cached lines remain valid until evicted. It
// is only safe for kernels that do not communicate through global
// memory (the paper's second benchmark set). It implements
// coherence.L1.
type L1Simple struct {
	smID   int
	nBanks int
	now    uint64

	array *cache.Array[struct{}]
	mshr  *cache.MSHR[simpleWaiter]

	send    coherence.Sender
	outQ    mem.MsgQueue
	pool    mem.Pool  // recycles the requests it sends and responses it consumes
	loadOut mem.Block // masked-word scratch handed to load completions
	stats   stats.L1Stats
	obs     coherence.Observer

	storesByID  map[uint64]*coherence.Request
	atomicsByID map[uint64]*coherence.Request
	nextReqID   uint64
	pending     int
	fail        *diag.ProtocolError
}

type simpleWaiter struct {
	req *coherence.Request
}

// Geometry mirrors the coherent controllers' organization.
type Geometry struct {
	Sets  int
	Ways  int
	MSHRs int
}

// NewL1Simple builds the non-coherent L1 for SM smID.
func NewL1Simple(smID, nBanks int, geo Geometry, send coherence.Sender, obs coherence.Observer) *L1Simple {
	return &L1Simple{
		smID:        smID,
		nBanks:      nBanks,
		array:       cache.NewArray[struct{}](geo.Sets, geo.Ways),
		mshr:        cache.NewMSHR[simpleWaiter](geo.MSHRs),
		send:        send,
		obs:         obs,
		storesByID:  make(map[uint64]*coherence.Request),
		atomicsByID: make(map[uint64]*coherence.Request),
	}
}

// Stats implements coherence.L1.
func (l *L1Simple) Stats() *stats.L1Stats { return &l.stats }

// Pending implements coherence.L1.
func (l *L1Simple) Pending() int { return l.pending }

// Quiescent implements coherence.L1: Tick only drains outQ, so an
// empty output queue means ticking is a pure no-op until new input.
func (l *L1Simple) Quiescent() bool { return l.outQ.Empty() }

// failf records the first protocol violation; the controller then
// drops further input until the simulator surfaces the error.
func (l *L1Simple) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("nocoh-l1[%d]", l.smID), event, format, args...)
	}
}

// Err implements coherence.L1.
func (l *L1Simple) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L1.
func (l *L1Simple) DumpState() diag.CacheState {
	return diag.CacheState{
		Name: "nocoh-l1", ID: l.smID, Pending: l.pending,
		MSHRUsed: l.mshr.Len(), MSHRCap: l.mshr.Cap(), OutQ: l.outQ.Len(),
	}
}

// Access implements coherence.L1.
func (l *L1Simple) Access(req *coherence.Request) coherence.AccessResult {
	if req.Atomic {
		return l.accessAtomic(req)
	}
	if req.Store {
		return l.accessStore(req)
	}
	return l.accessLoad(req)
}

// accessAtomic forwards the read-modify-write to the L2 and applies
// the same update to the local copy (if present), keeping the SM
// internally consistent — remote updates remain invisible, as
// everywhere in this non-coherent configuration.
func (l *L1Simple) accessAtomic(req *coherence.Request) coherence.AccessResult {
	l.stats.Atomics++
	l.stats.TagProbes++
	if line := l.array.Lookup(req.Block); line != nil {
		for i := 0; i < mem.WordsPerBlock; i++ {
			if req.Mask.Has(i) {
				line.Data.Words[i] = req.Atom.Apply(line.Data.Words[i], req.Data.Words[i])
			}
		}
		l.stats.DataAccesses++
	}
	l.nextReqID++
	l.atomicsByID[l.nextReqID] = req
	l.pending++
	l.post(mem.Msg{
		Type: mem.BusAtom, Block: req.Block, Src: l.smID,
		Dst: bankOf(req.Block, l.nBanks), Mask: req.Mask,
		Atom: req.Atom, ReqID: l.nextReqID, Warp: req.Warp,
	}, req.Data)
	return coherence.Pending
}

func (l *L1Simple) accessLoad(req *coherence.Request) coherence.AccessResult {
	l.stats.Loads++
	l.stats.TagProbes++
	if line := l.array.Lookup(req.Block); line != nil {
		l.stats.Hits++
		l.stats.DataAccesses++
		l.array.Touch(line, l.now)
		l.pending++ // completeLoad decrements
		l.completeLoad(req, &line.Data)
		return coherence.Hit
	}
	e := l.mshr.Lookup(req.Block)
	if e == nil && l.mshr.Full() {
		l.stats.MSHRStalls++
		return coherence.Reject
	}
	l.stats.MissCold++
	if e != nil {
		l.stats.MSHRMerges++
		e.Waiters = append(e.Waiters, simpleWaiter{req: req})
		l.pending++
		return coherence.Pending
	}
	if e = l.mshr.Allocate(req.Block); e == nil {
		l.failf("mshr-allocate", "allocate for %v failed despite capacity check", req.Block)
		return coherence.Reject
	}
	e.Waiters = append(e.Waiters, simpleWaiter{req: req})
	e.Issued = true
	l.pending++
	l.nextReqID++
	l.post(mem.Msg{
		Type: mem.BusRd, Block: req.Block, Src: l.smID,
		Dst: bankOf(req.Block, l.nBanks), ReqID: l.nextReqID,
	}, nil)
	return coherence.Pending
}

func (l *L1Simple) accessStore(req *coherence.Request) coherence.AccessResult {
	l.stats.Stores++
	l.stats.TagProbes++
	if line := l.array.Lookup(req.Block); line != nil {
		// Write-through with local update and no locking: without
		// coherence there is no remote writer to race with.
		mem.Merge(&line.Data, req.Data, req.Mask)
		l.stats.DataAccesses++
		l.array.Touch(line, l.now)
	}
	l.nextReqID++
	l.storesByID[l.nextReqID] = req
	l.pending++
	l.post(mem.Msg{
		Type: mem.BusWr, Block: req.Block, Src: l.smID,
		Dst: bankOf(req.Block, l.nBanks), Mask: req.Mask,
		ReqID: l.nextReqID, Warp: req.Warp,
	}, req.Data)
	return coherence.Pending
}

// completeLoad fires a load's Done with the masked words in the
// controller's scratch block, reused by the next completion (see
// coherence.Completion).
func (l *L1Simple) completeLoad(req *coherence.Request, data *mem.Block) {
	out := &l.loadOut
	*out = mem.Block{}
	mem.Merge(out, data, req.Mask)
	if l.obs != nil {
		l.obs.Observe(coherence.Op{
			SM: l.smID, Warp: req.Warp, Block: req.Block, Mask: req.Mask,
			Data: *out, Cycle: l.now,
		})
	}
	l.pending--
	req.Done(coherence.Completion{Data: out})
}

// Deliver implements coherence.L1. Every response is consumed before
// the handler returns, so the message recycles here.
func (l *L1Simple) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	l.handle(msg)
	l.pool.PutMsg(msg)
}

func (l *L1Simple) handle(msg *mem.Msg) {
	switch msg.Type {
	case mem.BusFill:
		l.stats.Fills++
		line := l.array.Lookup(msg.Block)
		if line == nil {
			victim := l.array.Victim(msg.Block, nil)
			l.array.Install(victim, msg.Block, msg.Data, l.now)
			line = victim
		} else {
			line.Data = *msg.Data
		}
		l.stats.DataAccesses++
		e := l.mshr.Lookup(msg.Block)
		if e == nil {
			return
		}
		for _, w := range e.Waiters {
			l.stats.DataAccesses++
			l.completeLoad(w.req, &line.Data)
		}
		l.mshr.Release(msg.Block)
	case mem.BusWrAck:
		l.stats.WriteAcks++
		req, ok := l.storesByID[msg.ReqID]
		if !ok {
			l.failf("unknown-write-ack", "write ack req=%d block=%v has no pending store", msg.ReqID, msg.Block)
			return
		}
		delete(l.storesByID, msg.ReqID)
		l.pending--
		req.Done(coherence.Completion{})
	case mem.BusAtomAck:
		req, ok := l.atomicsByID[msg.ReqID]
		if !ok {
			l.failf("unknown-atomic-ack", "atomic ack req=%d block=%v has no pending request", msg.ReqID, msg.Block)
			return
		}
		delete(l.atomicsByID, msg.ReqID)
		l.pending--
		req.Done(coherence.Completion{Data: msg.Data})
	default:
		l.failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
}

// Flush implements coherence.L1.
func (l *L1Simple) Flush() {
	if l.pending != 0 {
		l.failf("flush-outstanding", "flush with %d outstanding accesses", l.pending)
		return
	}
	l.stats.Flushes++
	l.array.ForEach(func(c *cache.Line[struct{}]) { l.array.Invalidate(c) })
}

// post sends a pooled copy of msg carrying the masked words of data
// (nil for a dataless request).
func (l *L1Simple) post(msg mem.Msg, data *mem.Block) {
	m := l.pool.Msg()
	*m = msg
	if data != nil {
		mem.Merge(m.Payload(), data, msg.Mask)
	}
	l.outQ.Post(l.send, m)
}

// SyncClock implements coherence.L1.
func (l *L1Simple) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L1.
func (l *L1Simple) Tick(now uint64) {
	l.now = now
	l.outQ.Drain(l.send)
}
