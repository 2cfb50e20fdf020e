package dir

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// l1State is an L1 line's MESI-style state (I is an invalid line).
type l1State uint8

const (
	stateS l1State = iota + 1
	stateE
	stateM
)

type l1Meta struct {
	state l1State
}

type waiter struct {
	req *coherence.Request
}

// pendingM tracks a block's outstanding GetM and the stores waiting on
// the grant.
type pendingM struct {
	block  mem.BlockAddr
	stores []*coherence.Request
}

// L1 is the directory protocol's private cache: write-back,
// write-allocate, invalidated on demand by the directory. It
// implements coherence.L1.
type L1 struct {
	cfg    Config
	smID   int
	nBanks int
	now    uint64

	array *cache.Array[l1Meta]
	mshr  *cache.MSHR[waiter]

	send    coherence.Sender
	outQ    mem.MsgQueue
	pool    mem.Pool  // recycles the messages it sends and consumes
	loadOut mem.Block // masked-word scratch handed to load completions
	stats   stats.L1Stats
	obs     coherence.Observer

	// getm holds blocks with an outstanding GetM (at most one each);
	// freeGetM recycles granted entries with their store lists.
	getm     map[mem.BlockAddr]*pendingM
	freeGetM mem.FreeList[pendingM]
	// wbInFlight marks blocks whose dirty eviction writeback has been
	// sent but (as far as this L1 knows) not yet consumed; an
	// invalidation for such a block acknowledges with the flag so the
	// directory waits for the writeback's data.
	wbInFlight map[mem.BlockAddr]bool

	atomics   map[uint64]*coherence.Request // in flight, by ReqID
	nextReqID uint64
	pending   int
	fail      *diag.ProtocolError

	// MutAckWithoutInval is a test-only mutation hook for the model
	// checker's teeth: when set, onInv acknowledges the directory's
	// invalidation without actually invalidating (or downgrading) the
	// local copy — a misordered-ack bug that breaks single-writer:
	// this L1 keeps serving stale hits after another SM is granted M.
	MutAckWithoutInval bool
}

// Geometry describes the cache organization.
type Geometry struct {
	Sets  int
	Ways  int
	MSHRs int
}

// NewL1 builds the directory-protocol L1 for SM smID.
func NewL1(cfg Config, smID, nBanks int, geo Geometry, send coherence.Sender, obs coherence.Observer) *L1 {
	cfg.fillDefaults()
	return &L1{
		cfg:        cfg,
		smID:       smID,
		nBanks:     nBanks,
		array:      cache.NewArray[l1Meta](geo.Sets, geo.Ways),
		mshr:       cache.NewMSHR[waiter](geo.MSHRs),
		send:       send,
		obs:        obs,
		getm:       make(map[mem.BlockAddr]*pendingM),
		wbInFlight: make(map[mem.BlockAddr]bool),
		atomics:    make(map[uint64]*coherence.Request),
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
		l.fail = diag.Errf(fmt.Sprintf("dir-l1[%d]", l.smID), event, format, args...)
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
		Name: "dir-l1", ID: l.smID, Pending: l.pending,
		MSHRUsed: l.mshr.Len(), MSHRCap: l.mshr.Cap(), OutQ: l.outQ.Len(),
		Blocked: len(l.getm),
	}
}

// Access implements coherence.L1.
func (l *L1) Access(req *coherence.Request) coherence.AccessResult {
	switch {
	case req.Atomic:
		return l.accessAtomic(req)
	case req.Store:
		return l.accessStore(req)
	default:
		return l.accessLoad(req)
	}
}

func (l *L1) accessLoad(req *coherence.Request) coherence.AccessResult {
	l.stats.Loads++
	l.stats.TagProbes++
	line := l.array.Lookup(req.Block)
	if line != nil && l.getm[req.Block] == nil {
		// Any valid state serves loads (single-writer holds: if some
		// other SM had M, this line would have been invalidated).
		l.stats.Hits++
		l.stats.DataAccesses++
		l.array.Touch(line, l.now)
		l.pending++ // completeLoad decrements
		l.completeLoad(req, &line.Data)
		return coherence.Hit
	}
	if line != nil {
		// A GetM for this block is outstanding: the load is ordered
		// after the store and waits for the grant.
		l.stats.MissLocked++
	} else {
		l.stats.MissCold++
	}
	e := l.mshr.Lookup(req.Block)
	if e == nil && l.mshr.Full() {
		l.stats.MSHRStalls++
		return coherence.Reject
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
	l.pending++
	if l.getm[req.Block] == nil {
		// No request in flight yet: send GetS.
		e.Issued = true
		l.nextReqID++
		msg := l.pool.Msg()
		*msg = mem.Msg{
			Type: mem.BusRd, Block: req.Block, Src: l.smID,
			Dst: bankOf(uint64(req.Block), l.nBanks), ReqID: l.nextReqID,
		}
		l.outQ.Post(l.send, msg)
	}
	return coherence.Pending
}

func (l *L1) accessStore(req *coherence.Request) coherence.AccessResult {
	l.stats.Stores++
	l.stats.TagProbes++
	line := l.array.Lookup(req.Block)
	if line != nil && l.getm[req.Block] == nil &&
		(line.Meta.state == stateM || line.Meta.state == stateE) {
		// Exclusive: write locally; E upgrades to M silently.
		mem.Merge(&line.Data, req.Data, req.Mask)
		line.Meta.state = stateM
		line.Dirty = true
		l.stats.DataAccesses++
		l.array.Touch(line, l.now)
		l.observeStore(req)
		req.Done(coherence.Completion{})
		return coherence.Hit
	}
	// S or I (or M-grant already pending): needs M.
	pm := l.getm[req.Block]
	if pm == nil {
		pm = l.freeGetM.Get()
		pm.block = req.Block
		l.getm[req.Block] = pm
		l.nextReqID++
		msg := l.pool.Msg()
		*msg = mem.Msg{
			Type: mem.BusGetM, Block: req.Block, Src: l.smID,
			Dst: bankOf(uint64(req.Block), l.nBanks), ReqID: l.nextReqID,
		}
		l.outQ.Post(l.send, msg)
	}
	pm.stores = append(pm.stores, req)
	l.pending++
	return coherence.Pending
}

func (l *L1) accessAtomic(req *coherence.Request) coherence.AccessResult {
	l.stats.Atomics++
	l.nextReqID++
	l.atomics[l.nextReqID] = req
	l.pending++
	msg := l.pool.Msg()
	*msg = mem.Msg{
		Type: mem.BusAtom, Block: req.Block, Src: l.smID,
		Dst: bankOf(uint64(req.Block), l.nBanks), Mask: req.Mask,
		Atom: req.Atom, ReqID: l.nextReqID, Warp: req.Warp,
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

func (l *L1) observeStore(req *coherence.Request) {
	if l.obs == nil {
		return
	}
	var stored mem.Block
	mem.Merge(&stored, req.Data, req.Mask)
	l.obs.Observe(coherence.Op{
		SM: l.smID, Warp: req.Warp, Store: true, Block: req.Block,
		Mask: req.Mask, Data: stored, Cycle: l.now,
	})
}

// Deliver implements coherence.L1. Every message is consumed before
// its handler returns (grants install their payload, invalidations are
// acknowledged, atomic acks complete their Done callbacks), so the
// message recycles here.
func (l *L1) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	switch msg.Type {
	case mem.BusFill:
		l.onGrant(msg)
	case mem.BusInv:
		l.onInv(msg)
	case mem.BusAtomAck:
		l.onAtomAck(msg)
	default:
		l.failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	l.pool.PutMsg(msg)
}

func (l *L1) onAtomAck(msg *mem.Msg) {
	req, ok := l.atomics[msg.ReqID]
	if !ok {
		l.failf("unknown-atomic-ack", "atomic ack req=%d block=%v has no pending request", msg.ReqID, msg.Block)
		return
	}
	delete(l.atomics, msg.ReqID)
	l.pending--
	req.Done(coherence.Completion{Data: msg.Data})
}

// onGrant installs granted data. GetS grants carry S or E; GetM grants
// carry M, and the block's pending stores apply on top.
func (l *L1) onGrant(msg *mem.Msg) {
	l.stats.Fills++
	// A fill means every message this L1 sent for the block earlier
	// (including a writeback) has been consumed by the bank.
	delete(l.wbInFlight, msg.Block)

	line := l.array.Lookup(msg.Block)
	if line == nil {
		victim := l.array.Victim(msg.Block, nil)
		if victim.Valid {
			l.evict(victim)
		}
		l.array.Install(victim, msg.Block, msg.Data, l.now)
		line = victim
	} else {
		line.Data = *msg.Data
		l.array.Touch(line, l.now)
	}
	l.stats.DataAccesses++

	switch msg.WTS {
	case grantS:
		line.Meta.state = stateS
	case grantE:
		line.Meta.state = stateE
	case grantM:
		line.Meta.state = stateM
		line.Dirty = true
		pm := l.getm[msg.Block]
		if pm == nil {
			l.failf("orphan-m-grant", "M grant for %v without pending GetM", msg.Block)
			return
		}
		delete(l.getm, msg.Block)
		for _, st := range pm.stores {
			mem.Merge(&line.Data, st.Data, st.Mask)
			l.stats.DataAccesses++
			l.observeStore(st)
			l.pending--
			st.Done(coherence.Completion{})
		}
		clear(pm.stores)
		*pm = pendingM{stores: pm.stores[:0]}
		l.freeGetM.Put(pm)
	default:
		l.failf("unknown-grant", "grant for %v carries unknown state %d", msg.Block, msg.WTS)
		return
	}

	// Wake loads parked on this block.
	if e := l.mshr.Lookup(msg.Block); e != nil {
		for _, w := range e.Waiters {
			l.stats.DataAccesses++
			l.completeLoad(w.req, &line.Data)
		}
		l.mshr.Release(msg.Block)
	}
}

// onInv serves a directory invalidation or downgrade: acknowledge,
// carrying data when our copy is dirty, or the wb-in-flight flag when
// the dirty copy was already evicted toward the bank.
func (l *L1) onInv(msg *mem.Msg) {
	l.stats.InvsReceived++
	line := l.array.Lookup(msg.Block)
	ack := l.pool.Msg()
	*ack = mem.Msg{
		Type: mem.BusInvAck, Block: msg.Block, Src: l.smID,
		Dst: bankOf(uint64(msg.Block), l.nBanks), ReqID: msg.ReqID,
	}
	if line != nil {
		if line.Dirty {
			ack.SetData(&line.Data)
			ack.Mask = mem.MaskAll
		}
		if l.MutAckWithoutInval {
			l.outQ.Post(l.send, ack)
			return
		}
		if msg.WTS == invDowngrade {
			line.Meta.state = stateS
			line.Dirty = false
		} else {
			l.stats.SelfInval++
			l.array.Invalidate(line)
		}
	} else if l.wbInFlight[msg.Block] {
		// Our dirty copy's writeback is racing this invalidation: tell
		// the directory to wait for it.
		ack.Reset = true
	}
	l.outQ.Post(l.send, ack)
}

// ForEachLineState implements coherence.StateHolder, reporting each
// valid line's MESI letter ("S", "E", or "M") so an external checker
// can verify the single-writer invariant across SMs.
func (l *L1) ForEachLineState(fn func(b mem.BlockAddr, state string)) {
	l.array.ForEach(func(c *cache.Line[l1Meta]) {
		var s string
		switch c.Meta.state {
		case stateS:
			s = "S"
		case stateE:
			s = "E"
		case stateM:
			s = "M"
		default:
			s = "?"
		}
		fn(c.Addr, s)
	})
}

// evict writes back dirty victims; clean victims leave silently (the
// directory's sharer list goes stale, which later invalidations
// tolerate).
func (l *L1) evict(victim *cache.Line[l1Meta]) {
	if victim.Dirty {
		l.stats.Writebacks++
		l.wbInFlight[victim.Addr] = true
		msg := l.pool.Msg()
		*msg = mem.Msg{
			Type: mem.BusWB, Block: victim.Addr, Src: l.smID,
			Dst: bankOf(uint64(victim.Addr), l.nBanks), Mask: mem.MaskAll,
		}
		msg.SetData(&victim.Data)
		l.outQ.Post(l.send, msg)
	}
	l.array.Invalidate(victim)
}

// Flush implements coherence.L1: write back every dirty line and drop
// the rest (kernel boundary).
func (l *L1) Flush() {
	if l.pending != 0 {
		l.failf("flush-outstanding", "flush with %d outstanding accesses", l.pending)
		return
	}
	l.stats.Flushes++
	l.array.ForEach(func(c *cache.Line[l1Meta]) {
		l.evict(c)
	})
}

// SyncClock implements coherence.L1.
func (l *L1) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L1.
func (l *L1) Tick(now uint64) {
	l.now = now
	l.outQ.Drain(l.send)
}
