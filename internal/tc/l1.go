package tc

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// l1Meta is the per-line TC metadata: the self-invalidation deadline in
// global cycles.
type l1Meta struct {
	expiry uint64
}

type waiter struct {
	req *coherence.Request
}

// L1 is the TC private cache controller of one SM: write-through,
// write-no-allocate, with time-based self-invalidation instead of
// invalidation traffic. It implements coherence.L1.
type L1 struct {
	cfg    Config
	smID   int
	nBanks int
	now    uint64

	array *cache.Array[l1Meta]
	mshr  *cache.MSHR[waiter]

	send  coherence.Sender
	outQ  mem.MsgQueue
	pool  mem.Pool // recycles the requests it sends and responses it consumes
	stats stats.L1Stats
	obs   coherence.Observer

	loadOut mem.Block // masked-word scratch handed to load completions

	// stores and atomics in flight, by ReqID
	storesByID  map[uint64]*coherence.Request
	atomicsByID map[uint64]*coherence.Request
	nextReqID   uint64
	pending     int
	fail        *diag.ProtocolError
}

// Geometry describes the cache organization (shared with G-TSC runs so
// capacity is identical across protocols).
type Geometry struct {
	Sets  int
	Ways  int
	MSHRs int
}

// NewL1 builds the TC controller for SM smID.
func NewL1(cfg Config, smID, nBanks int, geo Geometry, send coherence.Sender, obs coherence.Observer) *L1 {
	cfg.fillDefaults()
	return &L1{
		cfg:         cfg,
		smID:        smID,
		nBanks:      nBanks,
		array:       cache.NewArray[l1Meta](geo.Sets, geo.Ways),
		mshr:        cache.NewMSHR[waiter](geo.MSHRs),
		send:        send,
		obs:         obs,
		storesByID:  make(map[uint64]*coherence.Request),
		atomicsByID: make(map[uint64]*coherence.Request),
	}
}

// Stats implements coherence.L1.
func (l *L1) Stats() *stats.L1Stats { return &l.stats }

// Pending implements coherence.L1.
func (l *L1) Pending() int { return l.pending }

// Quiescent implements coherence.L1: Tick only drains outQ, so an
// empty output queue means ticking is a pure no-op until new input.
func (l *L1) Quiescent() bool { return l.outQ.Empty() }

// failf records the first protocol violation; the controller then
// drops further input until the simulator surfaces the error.
func (l *L1) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("tc-l1[%d]", l.smID), event, format, args...)
	}
}

// Err implements coherence.L1.
func (l *L1) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L1.
func (l *L1) DumpState() diag.CacheState {
	return diag.CacheState{
		Name: "tc-l1", ID: l.smID, Pending: l.pending,
		MSHRUsed: l.mshr.Len(), MSHRCap: l.mshr.Cap(), OutQ: l.outQ.Len(),
	}
}

// Access implements coherence.L1.
func (l *L1) Access(req *coherence.Request) coherence.AccessResult {
	if req.Atomic {
		return l.accessAtomic(req)
	}
	if req.Store {
		return l.accessStore(req)
	}
	return l.accessLoad(req)
}

// accessAtomic forwards a read-modify-write to the L2. Under
// TC-Strong it waits out every lease like a write; under TC-Weak it
// performs immediately and the acknowledgment carries a GWCT.
func (l *L1) accessAtomic(req *coherence.Request) coherence.AccessResult {
	l.stats.Atomics++
	l.nextReqID++
	l.atomicsByID[l.nextReqID] = req
	l.pending++
	msg := l.pool.Msg()
	*msg = mem.Msg{
		Type:  mem.BusAtom,
		Block: req.Block,
		Src:   l.smID,
		Dst:   bankOf(uint64(req.Block), l.nBanks),
		Mask:  req.Mask,
		Atom:  req.Atom,
		ReqID: l.nextReqID,
		Warp:  req.Warp,
	}
	mem.Merge(msg.Payload(), req.Data, req.Mask)
	l.outQ.Post(l.send, msg)
	return coherence.Pending
}

func (l *L1) accessLoad(req *coherence.Request) coherence.AccessResult {
	l.stats.Loads++
	l.stats.TagProbes++
	line := l.array.Lookup(req.Block)
	if line != nil && l.now < line.Meta.expiry {
		l.stats.Hits++
		l.stats.DataAccesses++
		l.array.Touch(line, l.now)
		l.pending++ // completeLoad decrements
		l.completeLoad(req, &line.Data)
		return coherence.Hit
	}
	// Cold miss, or coherence miss: the block self-invalidated when
	// its lease expired (a tag match with an expired lease, §II-D).
	e := l.mshr.Lookup(req.Block)
	if e == nil && l.mshr.Full() {
		l.stats.MSHRStalls++
		return coherence.Reject
	}
	if line != nil {
		l.stats.MissExpired++
		l.stats.SelfInval++
		l.array.Invalidate(line)
	} else {
		l.stats.MissCold++
	}
	if e != nil {
		l.stats.MSHRMerges++
		e.Waiters = append(e.Waiters, waiter{req: req})
		l.pending++
		return coherence.Pending
	}
	if e = l.mshr.Allocate(req.Block); e == nil {
		l.failf("mshr-allocate", "allocate for %v failed despite capacity check", req.Block)
		return coherence.Reject
	}
	e.Waiters = append(e.Waiters, waiter{req: req})
	e.Issued = true
	l.pending++
	l.sendBusRd(req.Block)
	return coherence.Pending
}

func (l *L1) sendBusRd(b mem.BlockAddr) {
	l.nextReqID++
	msg := l.pool.Msg()
	*msg = mem.Msg{
		Type:  mem.BusRd,
		Block: b,
		Src:   l.smID,
		Dst:   bankOf(uint64(b), l.nBanks),
		ReqID: l.nextReqID,
	}
	l.outQ.Post(l.send, msg)
}

// accessStore sends the write through to L2. TC does not update the
// local copy: under TC-Strong the write completes only after every
// lease (including this SM's) has expired, and under TC-Weak stale
// local reads are permitted until the next fence, so the cached copy
// simply ages out.
func (l *L1) accessStore(req *coherence.Request) coherence.AccessResult {
	l.stats.Stores++
	l.stats.TagProbes++
	l.nextReqID++
	l.storesByID[l.nextReqID] = req
	l.pending++
	msg := l.pool.Msg()
	*msg = mem.Msg{
		Type:  mem.BusWr,
		Block: req.Block,
		Src:   l.smID,
		Dst:   bankOf(uint64(req.Block), l.nBanks),
		Mask:  req.Mask,
		ReqID: l.nextReqID,
		Warp:  req.Warp,
	}
	mem.Merge(msg.Payload(), req.Data, req.Mask)
	l.outQ.Post(l.send, msg)
	return coherence.Pending
}

// completeLoad fires a load's Done with the masked words in the
// controller's scratch block, reused by the next completion (see
// coherence.Completion).
func (l *L1) completeLoad(req *coherence.Request, data *mem.Block) {
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
// the handler returns (fills install their payload, acks complete
// their Done callbacks), so the message recycles here.
func (l *L1) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	switch msg.Type {
	case mem.BusFill:
		l.onFill(msg)
	case mem.BusWrAck:
		l.onWriteAck(msg)
	case mem.BusAtomAck:
		l.onAtomAck(msg)
	default:
		l.failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	l.pool.PutMsg(msg)
}

func (l *L1) onAtomAck(msg *mem.Msg) {
	req, ok := l.atomicsByID[msg.ReqID]
	if !ok {
		l.failf("unknown-atomic-ack", "atomic ack req=%d block=%v has no pending request", msg.ReqID, msg.Block)
		return
	}
	delete(l.atomicsByID, msg.ReqID)
	l.pending--
	req.Done(coherence.Completion{Data: msg.Data, GWCT: msg.GWCT})
}

func (l *L1) onFill(msg *mem.Msg) {
	l.stats.Fills++
	e := l.mshr.Lookup(msg.Block)
	if msg.RTS <= l.now {
		// The granted lease already expired in flight (possible with
		// very short leases): retry rather than caching dead data.
		if e != nil && len(e.Waiters) > 0 {
			l.sendBusRd(msg.Block)
		}
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		// Expired lines are ordinary victims (self-invalidated).
		victim := l.array.Victim(msg.Block, nil)
		if victim.Valid {
			l.stats.SelfInval++
		}
		l.array.Install(victim, msg.Block, msg.Data, l.now)
		line = victim
	} else {
		line.Data = *msg.Data
		l.array.Touch(line, l.now)
	}
	line.Meta.expiry = msg.RTS
	l.stats.TSUpdates++
	l.stats.DataAccesses++
	if e == nil {
		return
	}
	// Physical leases cover every waiter at once: complete them all.
	for _, w := range e.Waiters {
		l.stats.DataAccesses++
		l.completeLoad(w.req, &line.Data)
	}
	e.Waiters = e.Waiters[:0]
	l.mshr.Release(msg.Block)
}

func (l *L1) onWriteAck(msg *mem.Msg) {
	l.stats.WriteAcks++
	req, ok := l.storesByID[msg.ReqID]
	if !ok {
		l.failf("unknown-write-ack", "write ack req=%d block=%v has no pending store", msg.ReqID, msg.Block)
		return
	}
	delete(l.storesByID, msg.ReqID)
	l.pending--
	// GWCT rides back to the LDST unit; fences stall on it (TC-Weak).
	req.Done(coherence.Completion{GWCT: msg.GWCT})
}

// Flush implements coherence.L1 (kernel boundary).
func (l *L1) Flush() {
	if l.pending != 0 {
		l.failf("flush-outstanding", "flush with %d outstanding accesses", l.pending)
		return
	}
	l.stats.Flushes++
	l.array.ForEach(func(c *cache.Line[l1Meta]) { l.array.Invalidate(c) })
}

// ForEachLease implements coherence.LeaseHolder. TC leases are
// physical-time intervals; they are reported as (0, expiry) so checkers
// can compare containment against the bank's granted expiries.
func (l *L1) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	l.array.ForEach(func(c *cache.Line[l1Meta]) { fn(c.Addr, 0, c.Meta.expiry) })
}

// NextTimeEvent implements coherence.TimeSensitive: the earliest future
// lease expiry, after which a currently-hitting load would miss.
func (l *L1) NextTimeEvent(now uint64) (uint64, bool) {
	var at uint64
	ok := false
	l.array.ForEach(func(c *cache.Line[l1Meta]) {
		if e := c.Meta.expiry; e > now && (!ok || e < at) {
			at, ok = e, true
		}
	})
	return at, ok
}

// SyncClock implements coherence.L1. For TC the local clock is
// semantically load-bearing outside Tick: accessLoad compares it
// against line lease expiries on every SM access, and the fill path
// detects leases that died in flight with msg.RTS <= l.now — so a
// controller skipped by the per-component dispatcher must still see
// its clock advance or stale leases read as live.
func (l *L1) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L1.
func (l *L1) Tick(now uint64) {
	l.now = now
	l.outQ.Drain(l.send)
}
