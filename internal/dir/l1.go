package dir

import (
	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
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
	coherence.Port
	array *cache.Array[l1Meta]

	// getm holds blocks with an outstanding GetM (at most one each);
	// freeGetM recycles granted entries with their store lists.
	getm     mem.Table[mem.BlockAddr, *pendingM]
	freeGetM mem.FreeList[pendingM]
	// wbInFlight marks blocks whose dirty eviction writeback has been
	// sent but (as far as this L1 knows) not yet consumed; an
	// invalidation for such a block acknowledges with the flag so the
	// directory waits for the writeback's data.
	wbInFlight mem.Table[mem.BlockAddr, bool]

	// MutAckWithoutInval is a test-only mutation hook for the model
	// checker's teeth: when set, onInv acknowledges the directory's
	// invalidation without actually invalidating (or downgrading) the
	// local copy — a misordered-ack bug that breaks single-writer:
	// this L1 keeps serving stale hits after another SM is granted M.
	MutAckWithoutInval bool
}

// NewL1 builds the directory-protocol L1 for SM smID.
func NewL1(smID, nBanks int, geo coherence.L1Geometry, send coherence.Sender, obs coherence.Observer) *L1 {
	return &L1{
		Port:  coherence.NewPort("dir-l1", smID, nBanks, geo.MSHRs, send, obs),
		array: cache.NewArray[l1Meta](geo.Sets, geo.Ways),
	}
}

// DumpState implements coherence.L1.
func (l *L1) DumpState() diag.CacheState {
	st := l.Port.DumpState()
	st.Blocked = l.getm.Len()
	return st
}

// Access implements coherence.L1.
func (l *L1) Access(req *coherence.Request) coherence.AccessResult {
	switch {
	case req.Atomic:
		l.Counters.Atomics++
		l.Issue(mem.BusAtom, req)
		return coherence.Pending
	case req.Store:
		return l.accessStore(req)
	default:
		return l.CountLoad(l.accessLoad(req))
	}
}

func (l *L1) accessLoad(req *coherence.Request) coherence.AccessResult {
	line := l.array.Lookup(req.Block)
	if line != nil && !l.getm.Has(req.Block) {
		// Any valid state serves loads (single-writer holds: if some
		// other SM had M, this line would have been invalidated).
		l.Counters.Hits++
		l.Counters.DataAccesses++
		l.array.Touch(line, l.Now)
		l.Owe()
		l.CompleteLoad(req, &line.Data, 0, 0)
		return coherence.Hit
	}
	e, fresh := l.Park(req)
	if e == nil {
		return coherence.Reject
	}
	if line != nil {
		// A GetM for this block is outstanding: the load is ordered
		// after the store and waits for the grant.
		l.Counters.MissLocked++
	} else {
		l.Counters.MissCold++
	}
	if fresh && !l.getm.Has(req.Block) {
		// No request in flight yet: send GetS.
		e.Issued = true
		l.Post(l.Request(mem.BusRd, req.Block))
	}
	return coherence.Pending
}

func (l *L1) accessStore(req *coherence.Request) coherence.AccessResult {
	l.Counters.Stores++
	l.Counters.TagProbes++
	line := l.array.Lookup(req.Block)
	if line != nil && !l.getm.Has(req.Block) &&
		(line.Meta.state == stateM || line.Meta.state == stateE) {
		// Exclusive: write locally; E upgrades to M silently.
		mem.Merge(&line.Data, req.Data, req.Mask)
		line.Meta.state = stateM
		line.Dirty = true
		l.Counters.DataAccesses++
		l.array.Touch(line, l.Now)
		l.observeStore(req)
		req.Done(coherence.Completion{})
		return coherence.Hit
	}
	// S or I (or M-grant already pending): needs M.
	pm, ok := l.getm.Get(req.Block)
	if !ok {
		pm = l.freeGetM.Get()
		pm.block = req.Block
		l.getm.Put(req.Block, pm)
		l.Post(l.Request(mem.BusGetM, req.Block))
	}
	pm.stores = append(pm.stores, req)
	l.Owe()
	return coherence.Pending
}

func (l *L1) observeStore(req *coherence.Request) {
	if l.Obs == nil {
		return
	}
	var stored mem.Block
	mem.Merge(&stored, req.Data, req.Mask)
	l.Obs.Observe(coherence.Op{
		SM: l.ID, Warp: req.Warp, Store: true, Block: req.Block,
		Mask: req.Mask, Data: stored, Cycle: l.Now,
	})
}

// Deliver implements coherence.L1. Every message is consumed before
// its handler returns (grants install their payload, invalidations are
// acknowledged, atomic acks complete their Done callbacks), so the
// message recycles here.
func (l *L1) Deliver(msg *mem.Msg) {
	if !l.Receive() {
		return
	}
	switch msg.Type {
	case mem.BusFill:
		l.onGrant(msg)
	case mem.BusInv:
		l.onInv(msg)
	case mem.BusAtomAck:
		l.Ack(msg, "unknown-atomic-ack", coherence.Completion{Data: msg.Data})
	default:
		l.Failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	l.Free(msg)
}

// onGrant installs granted data. GetS grants carry S or E; GetM grants
// carry M, and the block's pending stores apply on top.
func (l *L1) onGrant(msg *mem.Msg) {
	l.Counters.Fills++
	// A fill means every message this L1 sent for the block earlier
	// (including a writeback) has been consumed by the bank.
	l.wbInFlight.Delete(msg.Block)

	line := l.array.Lookup(msg.Block)
	if line == nil {
		victim := l.array.Victim(msg.Block, nil)
		if victim.Valid {
			l.evict(victim)
		}
		l.array.Install(victim, msg.Block, msg.Data, l.Now)
		line = victim
	} else {
		line.Data = *msg.Data
		l.array.Touch(line, l.Now)
	}
	l.Counters.DataAccesses++

	switch msg.WTS {
	case grantS:
		line.Meta.state = stateS
	case grantE:
		line.Meta.state = stateE
	case grantM:
		line.Meta.state = stateM
		line.Dirty = true
		pm, ok := l.getm.Delete(msg.Block)
		if !ok {
			l.Failf("orphan-m-grant", "M grant for %v without pending GetM", msg.Block)
			return
		}
		for _, st := range pm.stores {
			mem.Merge(&line.Data, st.Data, st.Mask)
			l.Counters.DataAccesses++
			l.observeStore(st)
			l.Complete(st, coherence.Completion{})
		}
		clear(pm.stores)
		*pm = pendingM{stores: pm.stores[:0]}
		l.freeGetM.Put(pm)
	default:
		l.Failf("unknown-grant", "grant for %v carries unknown state %d", msg.Block, msg.WTS)
		return
	}

	// Wake loads parked on this block.
	if e := l.MSHR.Lookup(msg.Block); e != nil {
		for _, w := range e.Waiters {
			l.Counters.DataAccesses++
			l.CompleteLoad(w, &line.Data, 0, 0)
		}
		l.MSHR.Release(msg.Block)
	}
}

// onInv serves a directory invalidation or downgrade: acknowledge,
// carrying data when our copy is dirty, or the wb-in-flight flag when
// the dirty copy was already evicted toward the bank.
func (l *L1) onInv(msg *mem.Msg) {
	l.Counters.InvsReceived++
	line := l.array.Lookup(msg.Block)
	ack := l.Msg(mem.BusInvAck, msg.Block)
	ack.ReqID = msg.ReqID
	if line != nil {
		if line.Dirty {
			ack.SetData(&line.Data)
			ack.Mask = mem.MaskAll
		}
		if l.MutAckWithoutInval {
			l.Post(ack)
			return
		}
		if msg.WTS == invDowngrade {
			line.Meta.state = stateS
			line.Dirty = false
		} else {
			l.Counters.SelfInval++
			l.array.Invalidate(line)
		}
	} else if l.wbInFlight.Has(msg.Block) {
		// Our dirty copy's writeback is racing this invalidation: tell
		// the directory to wait for it.
		ack.Reset = true
	}
	l.Post(ack)
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
		l.Counters.Writebacks++
		l.wbInFlight.Put(victim.Addr, true)
		wb := l.Msg(mem.BusWB, victim.Addr)
		wb.Mask = mem.MaskAll
		wb.SetData(&victim.Data)
		l.Post(wb)
	}
	l.array.Invalidate(victim)
}

// Flush implements coherence.L1: write back every dirty line and drop
// the rest (kernel boundary).
func (l *L1) Flush() {
	if l.FlushReady() {
		l.array.ForEach(l.evict)
	}
}
