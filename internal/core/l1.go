package core

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// l1Meta is the per-line G-TSC metadata in the private cache.
type l1Meta struct {
	wts uint64
	rts uint64
	// lockCount counts stores to this line whose BusWrAck has not yet
	// returned; while nonzero the line's new data must not be read
	// (update-visibility option 1, Fig 10 of the paper).
	lockCount int
	// Option 2 (KeepOldCopy): the pre-store data and lease, readable
	// by warps whose warp_ts falls within the old lease while the
	// store is pending.
	oldValid bool
	oldData  mem.Block
	oldWTS   uint64
	oldRTS   uint64
}

// pendingStore tracks one write-through store between BusWr and
// BusWrAck.
type pendingStore struct {
	reqID uint64
	block mem.BlockAddr
	warp  int
	mask  mem.WordMask
	data  mem.Block // the store's words (masked), re-applied over fills
	req   *coherence.Request
	// lineHit records whether the store updated a local line (and so
	// contributes to its lockCount).
	lineHit bool
}

// L1 is the G-TSC private cache controller of one SM. It implements
// coherence.L1.
//
// It is a write-through, write-no-allocate cache. Loads hit when the
// tag matches, the line is not locked by a pending store, and the
// issuing warp's warp_ts lies within the line's lease (warp_ts <= rts).
//
// Loads parked in the MSHR are either merged behind an outstanding
// read (request combining, §V-B) or blocked on a locked line (update
// visibility, §V-A).
type L1 struct {
	coherence.Port
	cfg    Config
	array  *cache.Array[l1Meta]
	warpTS []uint64

	// stores in flight, by ReqID, plus per-block send-ordered lists so
	// fills arriving under a locked line can be patched (see
	// applyPendingStores).
	storesByID    mem.Table[uint64, *pendingStore]
	storesByBlock mem.Table[mem.BlockAddr, []*pendingStore]
	// freeStores and freeStoreLists recycle acknowledged store records
	// and emptied per-block lists, so the store path allocates nothing
	// in steady state.
	freeStores     mem.FreeList[pendingStore]
	freeStoreLists [][]*pendingStore

	epoch uint64 // timestamp overflow epoch learned from L2 responses

	// reqsOut counts posted requests whose response has not yet been
	// delivered; epochFloor is this L1's epoch when the oldest of them
	// was sent. No response still owed can be older than that, so the
	// floor decodes a narrow response epoch tag unambiguously across up
	// to 2^EpochBits-1 resets (see tswrap.go) — the signed half-ring
	// compare it replaces livelocked after just two back-to-back
	// resets at EpochBits=2.
	reqsOut    int
	epochFloor uint64

	// MutDropLeaseCheck is a test-only protocol mutation: loads treat
	// any tag match as a hit, ignoring the lease bound (warp_ts <= rts).
	// It exists so the model checker's mutation tests can prove the
	// coherence invariants have teeth; never set it in a real run.
	MutDropLeaseCheck bool
}

// NewL1 builds the controller for SM smID, sending through send to
// nBanks L2 banks. obs may be nil.
func NewL1(cfg Config, smID, nBanks int, geo coherence.L1Geometry, send coherence.Sender, obs coherence.Observer) *L1 {
	cfg.fillDefaults()
	l := &L1{
		Port:   coherence.NewPort("gtsc-l1", smID, nBanks, geo.MSHRs, send, obs),
		cfg:    cfg,
		array:  cache.NewArray[l1Meta](geo.Sets, geo.Ways),
		warpTS: make([]uint64, geo.Warps),
	}
	for i := range l.warpTS {
		l.warpTS[i] = cfg.startTS()
	}
	return l
}

// DumpState implements coherence.L1.
func (l *L1) DumpState() diag.CacheState {
	st := l.Port.DumpState()
	if st.Pending > 0 || st.MSHRUsed > 0 {
		st.Detail = l.DebugString()
	}
	return st
}

// WarpTS exposes a warp's current timestamp (tests, trace tooling).
func (l *L1) WarpTS(warp int) uint64 { return l.warpTS[warp] }

// Epoch exposes the current (full, unwrapped) timestamp epoch.
func (l *L1) Epoch() uint64 { return l.epoch }

// ForEachLease implements coherence.LeaseHolder: it visits every valid
// line's [wts, rts] lease, for invariant checking by the model checker.
func (l *L1) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	l.array.ForEach(func(c *cache.Line[l1Meta]) { fn(c.Addr, c.Meta.wts, c.Meta.rts) })
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

// accessAtomic forwards a read-modify-write to the L2, where it is
// performed as an indivisible load+store at one timestamp. The local
// copy (if any) is left in place: it remains a valid *older* version
// under timestamp ordering, readable by warps whose warp_ts its lease
// still covers.
func (l *L1) accessAtomic(req *coherence.Request) coherence.AccessResult {
	l.Counters.Atomics++
	msg := l.Forward(mem.BusAtom, req)
	msg.WarpTS, msg.Epoch = l.warpTS[req.Warp], l.cfg.wireEpoch(l.epoch)
	l.Await(msg, req)
	l.postRequest(msg)
	return coherence.Pending
}

func (l *L1) accessLoad(req *coherence.Request) coherence.AccessResult {
	l.Counters.Loads++
	l.Counters.TagProbes++
	line := l.array.Lookup(req.Block)
	wts := l.warpTS[req.Warp]

	if line != nil && line.Meta.lockCount > 0 {
		// Update visibility: a store to this line is in flight.
		if l.cfg.KeepOldCopy && line.Meta.oldValid && wts <= line.Meta.oldRTS {
			// Option 2: serve the preserved old version; the load is
			// logically ordered before the pending store.
			l.Counters.Hits++
			l.Counters.DataAccesses++
			l.Owe()
			l.completeLoad(req, &line.Meta.oldData, line.Meta.oldWTS)
			return coherence.Hit
		}
		// Option 1 (default): park the load until the BusWrAck.
		if e, _ := l.Park(req); e == nil {
			return coherence.Reject
		}
		l.Counters.MissLocked++
		return coherence.Pending
	}

	if line != nil && (wts <= line.Meta.rts || l.MutDropLeaseCheck) {
		// L1 hit: tag match and warp_ts within the lease (§IV-A-1).
		l.Counters.Hits++
		l.Counters.DataAccesses++
		l.array.Touch(line, l.Now)
		l.Owe()
		l.completeLoad(req, &line.Data, line.Meta.wts)
		return coherence.Hit
	}

	// Miss: cold (no tag) or expired (lease behind warp_ts).
	e, fresh := l.Park(req)
	if e == nil {
		return coherence.Reject
	}
	if line != nil {
		l.Counters.MissExpired++
	} else {
		l.Counters.MissCold++
	}
	// Request combining (§V-B): a merged load waits for the in-flight
	// read, unless the ablation forwards every reader.
	if fresh || l.cfg.ForwardAll {
		l.sendRead(e, line, wts)
	}
	return coherence.Pending
}

// sendRead issues a read/renewal on behalf of an MSHR entry, tracking
// it so later events know whether a response is still owed.
func (l *L1) sendRead(e *cache.MSHREntry[*coherence.Request], line *cache.Line[l1Meta], warpTS uint64) {
	e.Issued = true
	e.InFlight++
	l.sendBusRd(e.Block, line, warpTS)
}

// noteResponse records that one in-flight read for the block answered.
func (l *L1) noteResponse(b mem.BlockAddr) {
	if e := l.MSHR.Lookup(b); e != nil && e.InFlight > 0 {
		e.InFlight--
	}
}

// sendBusRd issues a read/renewal request. A renewal (expired tag hit)
// carries the line's wts so L2 can answer without data when the L1's
// copy is still current (§IV-B-1).
func (l *L1) sendBusRd(b mem.BlockAddr, line *cache.Line[l1Meta], warpTS uint64) {
	var wts uint64
	if line != nil {
		wts = line.Meta.wts
		l.Counters.Renewals++
	}
	msg := l.Request(mem.BusRd, b)
	msg.WTS, msg.WarpTS, msg.Epoch = wts, warpTS, l.cfg.wireEpoch(l.epoch)
	l.postRequest(msg)
}

func (l *L1) accessStore(req *coherence.Request) coherence.AccessResult {
	l.Counters.Stores++
	l.Counters.TagProbes++
	line := l.array.Lookup(req.Block)
	msg := l.Forward(mem.BusWr, req)
	msg.WTS, msg.WarpTS, msg.Epoch = mem.NoWTS, l.warpTS[req.Warp], l.cfg.wireEpoch(l.epoch)
	ps := l.freeStores.Get()
	*ps = pendingStore{
		reqID: msg.ReqID,
		block: req.Block,
		warp:  req.Warp,
		mask:  req.Mask,
		req:   req,
	}
	mem.Merge(&ps.data, req.Data, req.Mask)

	if line != nil {
		// Write-through with local update: the line's data is updated
		// now but locked until the ack returns (§IV-A-2, §V-A).
		if l.cfg.KeepOldCopy && line.Meta.lockCount == 0 {
			line.Meta.oldValid = true
			line.Meta.oldData = line.Data
			line.Meta.oldWTS = line.Meta.wts
			line.Meta.oldRTS = line.Meta.rts
		}
		msg.WTS = line.Meta.wts
		mem.Merge(&line.Data, req.Data, req.Mask)
		line.Meta.lockCount++
		ps.lineHit = true
		l.Counters.DataAccesses++
		l.array.Touch(line, l.Now)
	}

	l.storesByID.Put(ps.reqID, ps)
	list, ok := l.storesByBlock.Get(req.Block)
	if n := len(l.freeStoreLists); !ok && n > 0 {
		list = l.freeStoreLists[n-1]
		l.freeStoreLists = l.freeStoreLists[:n-1]
	}
	l.storesByBlock.Put(req.Block, append(list, ps))
	l.Owe()
	l.postRequest(msg)
	return coherence.Pending
}

// completeLoad binds a load's value and timestamp and fires Done.
// The load's logical timestamp is max(warp_ts, wts) (Tardis rule);
// warp_ts advances to it.
func (l *L1) completeLoad(req *coherence.Request, data *mem.Block, wts uint64) {
	ts := max(l.warpTS[req.Warp], wts)
	if ts != l.warpTS[req.Warp] {
		l.Counters.TSUpdates++
	}
	l.warpTS[req.Warp] = ts
	l.CompleteLoad(req, data, ts, l.unrolled(ts))
}

// unrolled maps a wire timestamp into the monotonically increasing
// epoch-unrolled domain the invariant checker consumes.
func (l *L1) unrolled(ts uint64) uint64 { return l.epoch*(l.cfg.tsMax()+1) + ts }

// Deliver implements coherence.L1.
func (l *L1) Deliver(msg *mem.Msg) {
	if l.Failed() {
		return
	}
	// Decode the response's epoch tag against the epoch this L1 held
	// when its oldest outstanding request went out — a sound lower
	// bound on any owed response's true epoch, which disambiguates a
	// narrow wire tag across multiple back-to-back resets (tswrap.go).
	full := l.cfg.epochAtLeast(msg.Epoch, l.epochFloor)
	if l.reqsOut > 0 {
		l.reqsOut--
	}
	if full > l.epoch {
		// The L2 reset its timestamps since we sent the request
		// (§V-D): flush everything and adopt the new epoch before
		// processing the response.
		l.timestampReset(full)
	}
	// A response older than the current epoch was computed before a
	// reset this L1 has already adopted (it was in the NoC when the
	// reset fired): its timestamps belong to a dead epoch and must not
	// leak into the new one — installing such a fill's lease would let
	// warps read the old version long after new-epoch stores
	// superseded it.
	stale := full < l.epoch
	switch msg.Type {
	case mem.BusFill:
		l.onFill(msg, stale)
	case mem.BusRnw:
		l.onRenew(msg, stale)
	case mem.BusWrAck:
		l.onWriteAck(msg, stale)
	case mem.BusAtomAck:
		l.onAtomAck(msg, stale)
	default:
		l.Failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	// The response is fully consumed: fills install their payload into
	// the array (or complete waiters synchronously on the bypass path)
	// and acks complete their Done callbacks before returning, so the
	// message recycles here, payload included.
	l.Free(msg)
}

// onFill installs new data + lease and completes eligible waiters
// (Fig 8).
func (l *L1) onFill(msg *mem.Msg, stale bool) {
	l.Counters.Fills++
	l.noteResponse(msg.Block)
	if stale {
		// The fill's lease belongs to the epoch a reset just retired;
		// drop it and refetch in the current epoch for whoever still
		// waits (the retry carries new-epoch tags, so the L2 answers
		// with a current lease).
		if e := l.MSHR.Lookup(msg.Block); e != nil && len(e.Waiters) > 0 && e.InFlight == 0 {
			l.sendRead(e, l.array.Lookup(msg.Block), l.maxWaiterTS(e))
		}
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		// Allocate; locked lines are not evictable (their pending
		// stores still need the line). If the set is entirely locked,
		// serve the waiters straight from the message without caching.
		victim := l.array.Victim(msg.Block, func(c *cache.Line[l1Meta]) bool {
			return c.Meta.lockCount == 0
		})
		if victim != nil {
			if victim.Valid {
				l.Counters.SelfInval++
			}
			l.array.Install(victim, msg.Block, msg.Data, l.Now)
			line = victim
		}
	} else {
		line.Data = *msg.Data
		l.array.Touch(line, l.Now)
	}
	if line != nil {
		line.Meta.wts = msg.WTS
		line.Meta.rts = msg.RTS
		l.Counters.TSUpdates++
		// If stores to this block are still in flight, their words
		// must stay visible in the local copy (they are ordered after
		// this fill's version at L2); re-apply them in send order.
		l.applyPendingStores(msg.Block, line)
		l.Counters.DataAccesses++
		l.serviceWaiters(msg.Block, line)
		return
	}
	// Bypass path: no allocatable way; complete every waiter whose
	// warp_ts the granted lease covers, renew for the rest.
	l.serviceWaitersBypass(msg)
}

// onRenew extends the lease of data the L1 already holds (Fig 7a).
func (l *L1) onRenew(msg *mem.Msg, stale bool) {
	l.Counters.RenewalHits++
	l.noteResponse(msg.Block)
	line := l.array.Lookup(msg.Block)
	if stale || line == nil {
		// The line was evicted or flushed while the renewal was in
		// flight — or the renewal's rts belongs to a dead epoch — so the
		// dataless response cannot complete the waiters. Refetch on
		// their behalf.
		if e := l.MSHR.Lookup(msg.Block); e != nil && len(e.Waiters) > 0 && e.InFlight == 0 {
			l.sendRead(e, line, l.maxWaiterTS(e))
		}
		return
	}
	if msg.RTS > line.Meta.rts {
		line.Meta.rts = msg.RTS
		l.Counters.TSUpdates++
	}
	l.serviceWaiters(msg.Block, line)
}

// onWriteAck finishes a store: adopt the assigned timestamps, unlock
// the line, and wake parked readers (Fig 7b).
func (l *L1) onWriteAck(msg *mem.Msg, stale bool) {
	l.Counters.WriteAcks++
	ps, ok := l.storesByID.Delete(msg.ReqID)
	if !ok {
		l.Failf("unknown-write-ack", "write ack req=%d block=%v has no pending store", msg.ReqID, msg.Block)
		return
	}
	l.removeBlockStore(ps)
	block, warp, lineHit, req := ps.block, ps.warp, ps.lineHit, ps.req
	*ps = pendingStore{}
	l.freeStores.Put(ps)

	// The writing warp's timestamp jumps to the store's wts (§IV-D) —
	// unless the ack's timestamps belong to a dead epoch: then the
	// store is ordered before everything in the current epoch, which
	// the post-reset warp_ts already is. (A stale ack also implies the
	// reset flush cleared lineHit, so no line update runs below.)
	if !stale && msg.WTS > l.warpTS[warp] {
		l.warpTS[warp] = msg.WTS
		l.Counters.TSUpdates++
	}

	line := l.array.Lookup(block)
	if line != nil && lineHit {
		line.Meta.lockCount--
		if line.Meta.lockCount < 0 {
			l.Failf("lock-underflow", "block %v lock count went negative", block)
			return
		}
		if msg.WTS >= line.Meta.wts {
			line.Meta.wts = msg.WTS
			line.Meta.rts = msg.RTS
			l.Counters.TSUpdates++
		}
		if msg.Data != nil {
			// The L2 detected our base version was stale and returned
			// the authoritative merged block; later local stores (not
			// yet acked) are re-applied on top.
			line.Data = *msg.Data
			l.applyPendingStores(block, line)
		}
		if line.Meta.lockCount == 0 {
			line.Meta.oldValid = false
		}
	}
	l.Complete(req, coherence.Completion{TS: msg.WTS})

	if line != nil {
		if line.Meta.lockCount == 0 {
			l.serviceWaiters(block, line)
		}
		return
	}
	// The line vanished while the store was in flight (overflow reset
	// flush): readers parked behind the lock would strand without a
	// line to service them from — refetch on their behalf.
	if e := l.MSHR.Lookup(block); e != nil && len(e.Waiters) > 0 && e.InFlight == 0 {
		l.sendRead(e, nil, l.maxWaiterTS(e))
	}
}

// onAtomAck completes an atomic: the warp's timestamp jumps to the
// operation's wts and the pre-update values return to the lanes.
func (l *L1) onAtomAck(msg *mem.Msg, stale bool) {
	req := l.Take(msg, "unknown-atomic-ack")
	if req == nil {
		return
	}
	if !stale && msg.WTS > l.warpTS[req.Warp] {
		l.warpTS[req.Warp] = msg.WTS
		l.Counters.TSUpdates++
	}
	l.Complete(req, coherence.Completion{Data: msg.Data, TS: msg.WTS})
}

// applyPendingStores merges the words of this SM's in-flight stores to
// block into line.Data, in the order they were sent (their L2 ordering).
func (l *L1) applyPendingStores(block mem.BlockAddr, line *cache.Line[l1Meta]) {
	list, _ := l.storesByBlock.Get(block)
	for _, ps := range list {
		if ps.lineHit {
			mem.Merge(&line.Data, &ps.data, ps.mask)
		}
	}
}

func (l *L1) removeBlockStore(ps *pendingStore) {
	list, _ := l.storesByBlock.Get(ps.block)
	for i, p := range list {
		if p == ps {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		l.storesByBlock.Delete(ps.block)
		if list != nil { // nil when a reset flush dropped the block's list
			l.freeStoreLists = append(l.freeStoreLists, list)
		}
	} else {
		l.storesByBlock.Put(ps.block, list)
	}
}

// serviceWaiters completes every MSHR waiter the line's lease now
// covers. Remaining waiters (warp_ts beyond rts) trigger one renewal
// carrying the maximum outstanding warp_ts (§V-B). A locked line
// services nobody; the pending ack will retry.
func (l *L1) serviceWaiters(block mem.BlockAddr, line *cache.Line[l1Meta]) {
	e := l.MSHR.Lookup(block)
	if e == nil {
		return
	}
	if line.Meta.lockCount > 0 {
		return
	}
	kept := e.Waiters[:0]
	for _, w := range e.Waiters {
		if l.warpTS[w.Warp] <= line.Meta.rts {
			l.Counters.DataAccesses++
			l.completeLoad(w, &line.Data, line.Meta.wts)
		} else {
			kept = append(kept, w)
		}
	}
	e.Waiters = kept
	if len(e.Waiters) == 0 {
		l.MSHR.Release(block)
		return
	}
	if e.InFlight == 0 {
		l.sendRead(e, line, l.maxWaiterTS(e))
	}
}

// serviceWaitersBypass handles the rare fill that found no allocatable
// way: complete covered waiters from the message payload.
func (l *L1) serviceWaitersBypass(msg *mem.Msg) {
	e := l.MSHR.Lookup(msg.Block)
	if e == nil {
		return
	}
	kept := e.Waiters[:0]
	for _, w := range e.Waiters {
		if l.warpTS[w.Warp] <= msg.RTS {
			l.completeLoad(w, msg.Data, msg.WTS)
		} else {
			kept = append(kept, w)
		}
	}
	e.Waiters = kept
	if len(e.Waiters) == 0 {
		l.MSHR.Release(msg.Block)
		return
	}
	if e.InFlight == 0 {
		l.sendRead(e, nil, l.maxWaiterTS(e))
	}
}

func (l *L1) maxWaiterTS(e *cache.MSHREntry[*coherence.Request]) uint64 {
	var ts uint64
	for _, w := range e.Waiters {
		ts = max(ts, l.warpTS[w.Warp])
	}
	return ts
}

// timestampReset implements the L1 side of the overflow protocol
// (§V-D): flush every line and restart warp timestamps; in-flight
// requests will be answered with reset-flagged fills by the L2.
func (l *L1) timestampReset(epoch uint64) {
	l.epoch = epoch
	l.Counters.Flushes++
	l.array.ForEach(func(c *cache.Line[l1Meta]) {
		l.Counters.SelfInval++
		l.array.Invalidate(c)
	})
	for i := range l.warpTS {
		l.warpTS[i] = initialTS
	}
	// Pending stores keep their contexts: their acks arrive with
	// new-epoch timestamps and complete normally (lineHit no longer
	// finds a line, which is handled).
	l.storesByID.Each(func(_ uint64, ps *pendingStore) { ps.lineHit = false })
	l.storesByBlock.Clear()
}

// Flush implements coherence.L1: kernel-boundary invalidation
// ("the L1 cache is flushed after each kernel and all timestamps are
// reset", §V-D). The simulator drains outstanding accesses first.
func (l *L1) Flush() {
	if !l.FlushReady() {
		return
	}
	l.array.ForEach(func(c *cache.Line[l1Meta]) { l.array.Invalidate(c) })
	for i := range l.warpTS {
		l.warpTS[i] = l.cfg.startTS()
	}
}

// postRequest posts a request whose response this L1 is owed, keeping
// the epoch floor that decodes the response's epoch tag.
func (l *L1) postRequest(msg *mem.Msg) {
	if l.reqsOut == 0 {
		l.epochFloor = l.epoch
	}
	l.reqsOut++
	l.Post(msg)
}

// DebugString renders the controller's transient state (MSHR entries
// in block order, pending stores in request order, warp timestamps of
// interest) for deadlock diagnosis.
func (l *L1) DebugString() string {
	s := fmt.Sprintf("L1[sm%d] epoch=%d pending=%d\n", l.ID, l.epoch, l.Pending())
	l.MSHR.ForEach(func(e *cache.MSHREntry[*coherence.Request]) {
		s += fmt.Sprintf("  mshr %v issued=%t waiters=%d:", e.Block, e.Issued, len(e.Waiters))
		for _, w := range e.Waiters {
			s += fmt.Sprintf(" (warp %d ts %d)", w.Warp, l.warpTS[w.Warp])
		}
		line := l.array.Lookup(e.Block)
		if line != nil {
			s += fmt.Sprintf(" line[wts=%d rts=%d lock=%d]", line.Meta.wts, line.Meta.rts, line.Meta.lockCount)
		} else {
			s += " line=nil"
		}
		s += "\n"
	})
	for _, id := range l.storesByID.Keys() {
		ps, _ := l.storesByID.Get(id)
		s += fmt.Sprintf("  store req=%d block=%v warp=%d lineHit=%t\n", id, ps.block, ps.warp, ps.lineHit)
	}
	return s
}
