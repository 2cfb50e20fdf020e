package dir

import (
	"fmt"
	"math/bits"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// dirMeta is the full-map directory entry of one L2 line.
type dirMeta struct {
	sharers uint64 // bit per SM holding S
	owner   int    // SM holding E/M, or -1
}

func (d *dirMeta) clearOwner() { d.owner = -1 }

// busyState is an in-progress directory transaction on one block:
// invalidations/downgrades are outstanding and other requests for the
// block queue behind it. Targets are SM bitmaps, like the sharer map.
type busyState struct {
	block   mem.BlockAddr
	targets uint64 // SMs sent an invalidation or downgrade
	done    uint64 // targets whose copy is gone (or downgraded)
	waitWB  uint64 // targets whose ack said a dirty writeback is in flight
	// grant, when non-nil, is the request to serve once all targets
	// acknowledge (GetS with owner, GetM, or an atomic). When nil the
	// busy is an eviction recall and completion frees the line.
	grant   *mem.Msg
	waiting []*mem.Msg
}

func (b *busyState) remaining() int { return bits.OnesCount64(b.targets &^ b.done) }

// L2 is one directory bank: an inclusive shared cache whose lines
// carry a full sharer map. It implements coherence.L2. The
// architecturally current data of a block may live in an owner's L1
// until the kernel-boundary flush writes it back, so Peek (a
// verification hook) sees the bank's copy only.
//
// A fill whose set holds only lines with live L1 copies stalls while a
// recall invalidates the LRU victim's copies; Tick retries it every
// cycle, counting EvictStalls and issuing recalls. Plain misses and
// busy directory transactions do not bar quiescence: both advance only
// when a message arrives.
type L2 struct {
	coherence.Bank[dirMeta]
	busy mem.Table[mem.BlockAddr, *busyState]
	// freeBusy recycles retired transactions with their waiting lists'
	// capacity.
	freeBusy mem.FreeList[busyState]
}

// NewL2 builds directory bank bankID.
func NewL2(bankID int, geo coherence.BankGeometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	return &L2{Bank: coherence.NewBank[dirMeta]("dir-l2", bankID, geo, sendNoC, sendDRAM, obs)}
}

// ForEachLineState implements coherence.StateHolder, reporting each
// directory entry as "owner=<sm> sharers=<bitmap>" so checker
// counterexamples can show the directory's view next to the L1s'.
func (l *L2) ForEachLineState(fn func(b mem.BlockAddr, state string)) {
	l.Array.ForEach(func(c *cache.Line[dirMeta]) {
		fn(c.Addr, fmt.Sprintf("owner=%d sharers=%#x", c.Meta.owner, c.Meta.sharers))
	})
}

// Pending implements coherence.L2.
func (l *L2) Pending() int {
	n := l.Bank.Pending()
	l.busy.Each(func(_ mem.BlockAddr, b *busyState) { n += len(b.waiting) + b.remaining() + 1 })
	return n
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2) Drained() bool { return l.Bank.Drained() && l.busy.Len() == 0 }

// DumpState implements coherence.L2.
func (l *L2) DumpState() diag.CacheState {
	st := l.Bank.DumpState()
	st.Pending = l.Pending()
	l.busy.Each(func(_ mem.BlockAddr, b *busyState) { st.Blocked += len(b.waiting) + b.remaining() })
	return st
}

// Deliver implements coherence.L2.
func (l *L2) Deliver(msg *mem.Msg) { l.Enqueue(msg) }

// DRAMFill implements coherence.L2.
func (l *L2) DRAMFill(msg *mem.Msg) {
	if m := l.Landed(msg); m != nil {
		l.tryInstall(m)
	}
}

// tryInstall places a fetched block. Inclusion: the victim must have
// no live L1 copies; otherwise a recall (invalidation round) runs
// first and the install retries.
func (l *L2) tryInstall(m *coherence.Miss) {
	victim := l.Array.Victim(m.Block, func(c *cache.Line[dirMeta]) bool {
		return c.Meta.sharers == 0 && c.Meta.owner < 0 && !l.busy.Has(c.Addr)
	})
	if victim == nil {
		l.Counters.EvictStalls++
		l.Stall(m)
		l.startRecall(m.Block)
		return
	}
	if victim.Valid {
		l.Evict(victim)
	}
	l.Install(m, victim)
	victim.Meta.clearOwner()
	l.runQueue(m.Block, m.Waiting)
	l.Retire(m)
}

// startRecall begins invalidating the LRU victim's L1 copies so a
// stalled install can proceed — the §II-C recall traffic.
func (l *L2) startRecall(forBlock mem.BlockAddr) {
	victim := l.Array.Victim(forBlock, func(c *cache.Line[dirMeta]) bool {
		return !l.busy.Has(c.Addr)
	})
	if victim == nil {
		return // every way is mid-transaction; retry next tick
	}
	if victim.Meta.sharers == 0 && victim.Meta.owner < 0 {
		return // became clean meanwhile; the retry will install over it
	}
	l.Counters.Recalls++
	l.beginBusy(victim.Addr, &victim.Meta, -1, nil)
}

// beginBusy sends invalidations (or a downgrade, for GetS-vs-owner) to
// every live copy except exclude, and parks grant until all targets
// acknowledge.
func (l *L2) beginBusy(block mem.BlockAddr, meta *dirMeta, exclude int, grant *mem.Msg) {
	b := l.freeBusy.Get()
	b.block, b.grant = block, grant
	downgrade := grant != nil && grant.Type == mem.BusRd
	subtype := uint64(invInvalidate)
	if downgrade {
		subtype = invDowngrade
	}
	b.targets = meta.sharers
	if meta.owner >= 0 {
		b.targets |= 1 << uint(meta.owner)
	}
	if exclude >= 0 {
		b.targets &^= 1 << uint(exclude)
	}
	for t := b.targets; t != 0; t &= t - 1 {
		sm := bits.TrailingZeros64(t)
		l.Counters.Invalidations++
		inv := l.Pool().Msg()
		inv.Type, inv.Block, inv.Src, inv.Dst, inv.WTS = mem.BusInv, block, l.ID, sm, subtype
		l.Respond(inv)
	}
	if b.targets == 0 {
		l.Failf("busy-no-targets", "transaction on %v has no invalidation targets (sharers=%#x owner=%d)", block, meta.sharers, meta.owner)
		return
	}
	l.busy.Put(block, b)
}

// freeBusyState retires a completed transaction whose grant and
// waiting requests have been served or handed on.
func (l *L2) freeBusyState(b *busyState) {
	clear(b.waiting)
	*b = busyState{waiting: b.waiting[:0]}
	l.freeBusy.Put(b)
}

// onInvAck processes one acknowledgment.
func (l *L2) onInvAck(msg *mem.Msg) {
	b, ok := l.busy.Get(msg.Block)
	if !ok {
		return // stale ack after a completed recall; harmless
	}
	t := uint64(1) << uint(msg.Src)
	if b.targets&t == 0 || b.done&t != 0 {
		return
	}
	line := l.Array.Lookup(msg.Block)
	if msg.Data != nil && line != nil {
		mem.Merge(&line.Data, msg.Data, msg.Mask)
		line.Dirty = true
	}
	if msg.Reset {
		// The dirty copy's writeback is in flight; completion waits
		// for the BusWB itself.
		b.waitWB |= t
		l.maybeFinishBusy(b)
		return
	}
	b.done |= t
	l.maybeFinishBusy(b)
}

// onWB merges a writeback. A writeback from a targeted L1 completes
// that target outright: the sender provably holds no copy any more and
// its data has arrived. (Its invalidation ack — flagged wb-in-flight —
// follows the writeback on the same FIFO pair, so waiting for t.waitWB
// before honoring the writeback would deadlock the transaction.)
func (l *L2) onWB(msg *mem.Msg) {
	line := l.Array.Lookup(msg.Block)
	if line != nil {
		mem.Merge(&line.Data, msg.Data, msg.Mask)
		line.Dirty = true
		if line.Meta.owner == msg.Src {
			line.Meta.clearOwner()
		}
		l.Counters.DataAccesses++
	}
	if b, ok := l.busy.Get(msg.Block); ok {
		if t := uint64(1) << uint(msg.Src); b.targets&t != 0 && b.done&t == 0 {
			b.done |= t
			l.maybeFinishBusy(b)
		}
	}
}

// maybeFinishBusy completes the transaction once every target is done:
// the directory state collapses and the parked grant (if any) is
// served, then queued requests replay.
func (l *L2) maybeFinishBusy(b *busyState) {
	if b.remaining() != 0 {
		return
	}
	l.busy.Delete(b.block)
	line := l.Array.Lookup(b.block)
	if line == nil {
		l.Failf("busy-line-vanished", "completed transaction on %v but the line is gone", b.block)
		return
	}
	// All targeted copies are gone (or downgraded).
	if b.grant != nil && b.grant.Type == mem.BusRd {
		// Downgrade path: the old owner keeps an S copy.
		if line.Meta.owner >= 0 {
			line.Meta.sharers |= 1 << uint(line.Meta.owner)
		}
	} else {
		line.Meta.sharers &^= b.targets
	}
	if line.Meta.owner >= 0 {
		line.Meta.clearOwner()
	}

	if b.grant != nil {
		l.serve(b.grant, line)
	}
	l.runQueue(b.block, b.waiting)
	l.freeBusyState(b)
}

// runQueue replays parked requests in order; a request that starts a
// new transaction absorbs the rest of the queue.
func (l *L2) runQueue(block mem.BlockAddr, msgs []*mem.Msg) {
	for i, msg := range msgs {
		line := l.Array.Lookup(block)
		if line == nil {
			// The line was evicted between replays (recall-for-install
			// completed): refetch through the miss path.
			l.route(msg)
			continue
		}
		l.serve(msg, line)
		if nb, ok := l.busy.Get(block); ok {
			nb.waiting = append(nb.waiting, msgs[i+1:]...)
			return
		}
	}
}

// serve handles one request against a present, non-busy line. A
// request that starts a transaction parks as its grant; every other
// request is consumed and freed here (or by grant/performAtomic).
func (l *L2) serve(msg *mem.Msg, line *cache.Line[dirMeta]) {
	meta := &line.Meta
	switch msg.Type {
	case mem.BusRd: // GetS
		if meta.owner >= 0 && meta.owner != msg.Src {
			l.beginBusy(msg.Block, meta, msg.Src, msg)
			return
		}
		if meta.owner == msg.Src {
			// Re-request from the owner itself (lost its copy after a
			// silent E eviction): keep exclusivity.
			l.grant(msg, line, grantE)
			return
		}
		if meta.sharers == 0 {
			meta.owner = msg.Src
			l.grant(msg, line, grantE)
			return
		}
		meta.sharers |= 1 << uint(msg.Src)
		l.grant(msg, line, grantS)
	case mem.BusGetM:
		others := meta.sharers &^ (1 << uint(msg.Src))
		if others == 0 && (meta.owner < 0 || meta.owner == msg.Src) {
			meta.sharers = 0
			meta.owner = msg.Src
			l.grant(msg, line, grantM)
			return
		}
		l.beginBusy(msg.Block, meta, msg.Src, msg)
	case mem.BusAtom:
		if meta.sharers != 0 || meta.owner >= 0 {
			// Recall every copy (including the requester's), then
			// perform at the L2.
			l.beginBusy(msg.Block, meta, -1, msg)
			return
		}
		l.performAtomic(msg, line)
	case mem.BusWB:
		l.onWB(msg)
		l.Free(msg)
	default:
		l.Failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}

// grant completes a GetS/GetM (state per the grant code). GetM grants
// re-run through serve's GetM arm; by construction all other copies
// are gone, so this sends the fill.
func (l *L2) grant(msg *mem.Msg, line *cache.Line[dirMeta], state uint64) {
	if msg.Type == mem.BusGetM {
		line.Meta.sharers = 0
		line.Meta.owner = msg.Src
		state = grantM
	}
	if msg.Type == mem.BusAtom {
		l.performAtomic(msg, line)
		return
	}
	l.Counters.FillsSent++
	l.Counters.DataAccesses++
	l.Array.Touch(line, l.Now)
	fill := l.Reply(mem.BusFill, msg)
	fill.WTS = state
	fill.SetData(&line.Data)
	l.Respond(fill)
	l.Free(msg)
}

// performAtomic performs an atomic at the bank and frees the request.
func (l *L2) performAtomic(msg *mem.Msg, line *cache.Line[dirMeta]) {
	l.Respond(l.Atomic(msg, line, 0))
	l.Free(msg)
}

// route dispatches a request when the line may be absent or busy.
// Acknowledgments and writebacks are consumed at once, even while the
// block is busy; other requests queue behind a busy transaction or an
// in-flight fill.
func (l *L2) route(msg *mem.Msg) {
	switch msg.Type {
	case mem.BusInvAck:
		l.onInvAck(msg)
		l.Free(msg)
		return
	case mem.BusWB:
		l.onWB(msg)
		l.Free(msg)
		return
	}
	if b, ok := l.busy.Get(msg.Block); ok {
		b.waiting = append(b.waiting, msg)
		return
	}
	line := l.Array.Lookup(msg.Block)
	if line == nil {
		l.Fetch(msg)
		return
	}
	l.Counters.Hits++
	l.serve(msg, line)
}

// Tick implements coherence.L2. Stalled installs retry (their
// recalls may have completed) before the head-of-line check: a retry
// can post output, which must block new requests this very cycle.
func (l *L2) Tick(now uint64) {
	l.Drain(now)
	l.RetryStalled(l.tryInstall)
	if !l.Blocked() {
		l.Service(l.service)
	}
}

func (l *L2) service(msg *mem.Msg) {
	switch msg.Type {
	case mem.BusRd:
		l.Counters.Reads++
	case mem.BusGetM:
		l.Counters.Writes++
	case mem.BusAtom:
		l.Counters.Atomics++
	}
	l.Counters.TagProbes++
	l.route(msg)
}
