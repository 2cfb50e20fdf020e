package dir

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
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

// l2Miss tracks a DRAM fetch in progress.
type l2Miss struct {
	block   mem.BlockAddr
	waiting []*mem.Msg
	filled  bool      // DRAM returned data but the install stalled
	data    mem.Block // the returned block, valid when filled
}

// L2 is one directory bank: an inclusive shared cache whose lines
// carry a full sharer map. It implements coherence.L2.
type L2 struct {
	cfg    Config
	bankID int
	now    uint64

	array *cache.Array[dirMeta]
	miss  map[mem.BlockAddr]*l2Miss
	busy  map[mem.BlockAddr]*busyState

	// freeMisses and freeBusy recycle retired entries together with
	// their waiting lists' capacity.
	freeMisses mem.FreeList[l2Miss]
	freeBusy   mem.FreeList[busyState]
	scratch    []mem.BlockAddr // reusable sorted-block buffer (stalled fills)

	inQ      mem.MsgQueue
	perCycle int

	sendNoC  coherence.Sender
	sendDRAM coherence.Sender
	outNoC   mem.MsgQueue
	outDRAM  mem.MsgQueue
	// pool recycles the bank's messages; the bank's DRAM partition
	// shares it.
	pool *mem.Pool

	stats stats.L2Stats
	obs   coherence.Observer
	fail  *diag.ProtocolError

	// stalledFills counts misses whose DRAM data has returned but whose
	// install stalled on a protected victim (m.data != nil). While any
	// fill is stalled, Tick retries installs (counting EvictStalls and
	// issuing recalls) every cycle, so the bank is not quiescent.
	stalledFills int
}

// L2Geometry describes one bank's organization.
type L2Geometry struct {
	Sets     int
	Ways     int
	PerCycle int
}

// NewL2 builds directory bank bankID.
func NewL2(cfg Config, bankID int, geo L2Geometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	cfg.fillDefaults()
	if geo.PerCycle == 0 {
		geo.PerCycle = 1
	}
	return &L2{
		cfg:      cfg,
		bankID:   bankID,
		array:    cache.NewArray[dirMeta](geo.Sets, geo.Ways),
		miss:     make(map[mem.BlockAddr]*l2Miss),
		busy:     make(map[mem.BlockAddr]*busyState),
		perCycle: geo.PerCycle,
		sendNoC:  sendNoC,
		sendDRAM: sendDRAM,
		obs:      obs,
		pool:     &mem.Pool{},
	}
}

// Pool implements coherence.L2.
func (l *L2) Pool() *mem.Pool { return l.pool }

// Stats implements coherence.L2.
func (l *L2) Stats() *stats.L2Stats { return &l.stats }

// ForEachLineState implements coherence.StateHolder, reporting each
// directory entry as "owner=<sm> sharers=<bitmap>" so checker
// counterexamples can show the directory's view next to the L1s'.
func (l *L2) ForEachLineState(fn func(b mem.BlockAddr, state string)) {
	l.array.ForEach(func(c *cache.Line[dirMeta]) {
		fn(c.Addr, fmt.Sprintf("owner=%d sharers=%#x", c.Meta.owner, c.Meta.sharers))
	})
}

// Pending implements coherence.L2.
func (l *L2) Pending() int {
	n := l.inQ.Len() + l.outNoC.Len() + l.outDRAM.Len()
	for _, m := range l.miss {
		n += len(m.waiting) + 1
	}
	for _, b := range l.busy {
		n += len(b.waiting) + b.remaining() + 1
	}
	return n
}

// Quiescent implements coherence.L2. Stalled fills bar quiescence
// (Tick retries them, counting EvictStalls and issuing recalls, every
// cycle). Plain misses and busy directory transactions do not: both
// advance only when a message arrives, which the skip engine models
// as scheduled NoC/DRAM events.
func (l *L2) Quiescent() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty() &&
		l.stalledFills == 0
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2) Drained() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty() &&
		len(l.miss) == 0 && len(l.busy) == 0
}

// failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (l *L2) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("dir-l2[%d]", l.bankID), event, format, args...)
	}
}

// Err implements coherence.L2.
func (l *L2) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L2.
func (l *L2) DumpState() diag.CacheState {
	blocked := 0
	for _, b := range l.busy {
		blocked += len(b.waiting) + b.remaining()
	}
	return diag.CacheState{
		Name: "dir-l2", ID: l.bankID, Pending: l.Pending(),
		MSHRUsed: len(l.miss), InQ: l.inQ.Len(),
		OutQ:   l.outNoC.Len() + l.outDRAM.Len(),
		Misses: len(l.miss), Blocked: blocked,
	}
}

// Peek implements coherence.L2 (verification hook). Note the
// architecturally current data may live in an owner's L1 until the
// kernel-boundary flush writes it back.
func (l *L2) Peek(b mem.BlockAddr) (*mem.Block, bool) {
	line := l.array.Lookup(b)
	if line == nil {
		return nil, false
	}
	return &line.Data, true
}

// Deliver implements coherence.L2.
func (l *L2) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	l.inQ.Push(msg)
}

// DRAMFill implements coherence.L2.
func (l *L2) DRAMFill(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	m, ok := l.miss[msg.Block]
	if !ok {
		l.failf("orphan-dram-fill", "DRAM fill for %v without outstanding miss", msg.Block)
		return
	}
	m.data = *msg.Data
	m.filled = true
	l.pool.PutMsg(msg)
	l.stalledFills++
	l.tryInstall(m)
}

// tryInstall places a fetched block. Inclusion: the victim must have
// no live L1 copies; otherwise a recall (invalidation round) runs
// first and the install retries.
func (l *L2) tryInstall(m *l2Miss) {
	victim := l.array.Victim(m.block, func(c *cache.Line[dirMeta]) bool {
		return c.Meta.sharers == 0 && c.Meta.owner < 0 && l.busy[c.Addr] == nil
	})
	if victim == nil {
		l.stats.EvictStalls++
		l.startRecall(m.block)
		return
	}
	if victim.Valid {
		l.evictClean(victim)
	}
	l.array.Install(victim, m.block, &m.data, l.now)
	victim.Meta.clearOwner()
	l.stats.DataAccesses++
	delete(l.miss, m.block)
	l.stalledFills--
	l.runQueue(m.block, m.waiting)
	clear(m.waiting)
	*m = l2Miss{waiting: m.waiting[:0]}
	l.freeMisses.Put(m)
}

// startRecall begins invalidating the LRU victim's L1 copies so a
// stalled install can proceed — the §II-C recall traffic.
func (l *L2) startRecall(forBlock mem.BlockAddr) {
	victim := l.array.Victim(forBlock, func(c *cache.Line[dirMeta]) bool {
		return l.busy[c.Addr] == nil
	})
	if victim == nil {
		return // every way is mid-transaction; retry next tick
	}
	if victim.Meta.sharers == 0 && victim.Meta.owner < 0 {
		return // became clean meanwhile; the retry will install over it
	}
	l.stats.Recalls++
	l.beginBusy(victim.Addr, &victim.Meta, -1, nil)
}

// evictClean evicts a line with no L1 copies, writing dirty data back
// to memory.
func (l *L2) evictClean(victim *cache.Line[dirMeta]) {
	l.stats.Evictions++
	if victim.Dirty {
		l.stats.WritebackDRAM++
		msg := l.pool.Msg()
		*msg = mem.Msg{
			Type: mem.DRAMWr, Block: victim.Addr, Src: l.bankID, Dst: l.bankID,
			Mask: mem.MaskAll,
		}
		msg.SetData(&victim.Data)
		l.outDRAM.Post(l.sendDRAM, msg)
	}
	l.array.Invalidate(victim)
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
	for sm := 0; sm < l.cfg.MaxSharers; sm++ {
		if sm == exclude {
			continue
		}
		hasCopy := meta.sharers&(1<<uint(sm)) != 0 || meta.owner == sm
		if !hasCopy {
			continue
		}
		b.targets |= 1 << uint(sm)
		l.stats.Invalidations++
		inv := l.pool.Msg()
		*inv = mem.Msg{
			Type: mem.BusInv, Block: block, Src: l.bankID, Dst: sm, WTS: subtype,
		}
		l.outNoC.Post(l.sendNoC, inv)
	}
	if b.targets == 0 {
		l.failf("busy-no-targets", "transaction on %v has no invalidation targets (sharers=%#x owner=%d)", block, meta.sharers, meta.owner)
		return
	}
	l.busy[block] = b
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
	b := l.busy[msg.Block]
	if b == nil {
		return // stale ack after a completed recall; harmless
	}
	t := uint64(1) << uint(msg.Src)
	if b.targets&t == 0 || b.done&t != 0 {
		return
	}
	line := l.array.Lookup(msg.Block)
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
	line := l.array.Lookup(msg.Block)
	if line != nil {
		mem.Merge(&line.Data, msg.Data, msg.Mask)
		line.Dirty = true
		if line.Meta.owner == msg.Src {
			line.Meta.clearOwner()
		}
		l.stats.DataAccesses++
	}
	if b := l.busy[msg.Block]; b != nil {
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
	delete(l.busy, b.block)
	line := l.array.Lookup(b.block)
	if line == nil {
		l.failf("busy-line-vanished", "completed transaction on %v but the line is gone", b.block)
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
		line := l.array.Lookup(block)
		if line == nil {
			// The line was evicted between replays (recall-for-install
			// completed): refetch through the miss path.
			l.route(msg)
			continue
		}
		l.serve(msg, line)
		if nb := l.busy[block]; nb != nil {
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
		l.pool.PutMsg(msg)
	default:
		l.failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
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
	l.stats.FillsSent++
	l.stats.DataAccesses++
	l.array.Touch(line, l.now)
	fill := l.pool.Msg()
	*fill = mem.Msg{
		Type: mem.BusFill, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		WTS: state, ReqID: msg.ReqID,
	}
	fill.SetData(&line.Data)
	l.outNoC.Post(l.sendNoC, fill)
	l.pool.PutMsg(msg)
}

// performAtomic performs an atomic at the bank and frees the request.
func (l *L2) performAtomic(msg *mem.Msg, line *cache.Line[dirMeta]) {
	// The pre-update values return to the requester in the ack's
	// payload.
	ack := l.pool.Msg()
	*ack = mem.Msg{
		Type: mem.BusAtomAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		Mask: msg.Mask, ReqID: msg.ReqID, Warp: msg.Warp,
	}
	old := ack.Payload()
	mem.Merge(old, &line.Data, msg.Mask)
	for i := 0; i < mem.WordsPerBlock; i++ {
		if msg.Mask.Has(i) {
			line.Data.Words[i] = msg.Atom.Apply(line.Data.Words[i], msg.Data.Words[i])
		}
	}
	line.Dirty = true
	l.array.Touch(line, l.now)
	l.stats.DataAccesses++
	if l.obs != nil {
		l.obs.Observe(coherence.Op{
			SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
			Mask: msg.Mask, Data: *old, Cycle: l.now,
		})
		var stored mem.Block
		mem.Merge(&stored, &line.Data, msg.Mask)
		l.obs.Observe(coherence.Op{
			SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
			Mask: msg.Mask, Data: stored, Cycle: l.now,
		})
	}
	l.outNoC.Post(l.sendNoC, ack)
	l.pool.PutMsg(msg)
}

// route dispatches a request when the line may be absent or busy.
// Acknowledgments and writebacks are consumed at once, even while the
// block is busy; other requests queue behind a busy transaction or an
// in-flight fill.
func (l *L2) route(msg *mem.Msg) {
	switch msg.Type {
	case mem.BusInvAck:
		l.onInvAck(msg)
		l.pool.PutMsg(msg)
		return
	case mem.BusWB:
		l.onWB(msg)
		l.pool.PutMsg(msg)
		return
	}
	if b, ok := l.busy[msg.Block]; ok {
		b.waiting = append(b.waiting, msg)
		return
	}
	if m, ok := l.miss[msg.Block]; ok {
		m.waiting = append(m.waiting, msg)
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		l.stats.Misses++
		m := l.freeMisses.Get()
		m.block = msg.Block
		m.waiting = append(m.waiting, msg)
		l.miss[msg.Block] = m
		rd := l.pool.Msg()
		*rd = mem.Msg{Type: mem.DRAMRd, Block: msg.Block, Src: l.bankID, Dst: l.bankID}
		l.outDRAM.Post(l.sendDRAM, rd)
		return
	}
	l.stats.Hits++
	l.serve(msg, line)
}

// SyncClock implements coherence.L2.
func (l *L2) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L2.
func (l *L2) Tick(now uint64) {
	l.now = now
	l.outNoC.Drain(l.sendNoC)
	l.outDRAM.Drain(l.sendDRAM)
	// Retry stalled installs (their recalls may have completed). Sorted
	// by block address so replay order is independent of map layout.
	// The scan is gated on the O(1) stalled-fill count: with none
	// stalled it built an empty slice anyway, so skipping it is exact.
	if l.stalledFills > 0 {
		stalled := l.scratch[:0]
		for b, m := range l.miss {
			if m.filled && l.busy[b] == nil {
				stalled = append(stalled, b)
			}
		}
		l.scratch = stalled
		slices.Sort(stalled)
		for _, b := range stalled {
			if m, ok := l.miss[b]; ok && m.filled && l.busy[b] == nil {
				l.tryInstall(m)
			}
		}
	}
	if !l.outNoC.Empty() || !l.outDRAM.Empty() {
		return
	}
	for i := 0; i < l.perCycle && !l.inQ.Empty(); i++ {
		msg := l.inQ.Pop()
		switch msg.Type {
		case mem.BusRd:
			l.stats.Reads++
		case mem.BusGetM:
			l.stats.Writes++
		case mem.BusAtom:
			l.stats.Atomics++
		}
		l.stats.TagProbes++
		l.route(msg)
	}
}
