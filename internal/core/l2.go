package core

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// l2Meta is the per-line G-TSC metadata in the shared cache.
type l2Meta struct {
	wts uint64
	rts uint64
	// lease is the block's current lease length (== cfg.Lease unless
	// AdaptiveLease adjusts it per access history).
	lease uint64
}

// l2Miss tracks one outstanding DRAM read and the requests (reads and
// writes) that arrived for the block while it was in flight; they are
// replayed in order when the fill lands, preserving the bank's
// serialization of the block.
type l2Miss struct {
	block   mem.BlockAddr
	waiting []*mem.Msg
}

// L2 is one G-TSC shared cache bank. It implements coherence.L2.
//
// The L2 is non-inclusive (§V-C): evictions never stall; the victim's
// rts folds into the bank's single mem_ts, and later stores to a
// refetched block order after mem_ts by timestamp assignment rather
// than by waiting.
type L2 struct {
	cfg    Config
	bankID int
	now    uint64

	array *cache.Array[l2Meta]
	memTS uint64
	miss  map[mem.BlockAddr]*l2Miss
	// freeMisses recycles retired miss entries with their waiting
	// lists' capacity; at most one entry per outstanding miss is live.
	freeMisses mem.FreeList[l2Miss]

	inQ      mem.MsgQueue
	perCycle int

	sendNoC  coherence.Sender
	sendDRAM coherence.Sender
	outNoC   mem.MsgQueue
	outDRAM  mem.MsgQueue

	// pool recycles the bank's responses plus the requests it
	// consumes; it is shared with the bank's DRAM partition (both tick
	// in the hierarchy phase) so the DRAM read/fill loop recycles too.
	pool *mem.Pool

	stats stats.L2Stats
	obs   coherence.Observer

	// renewDist records how far each renewal pushed a block's rts —
	// the "lease extension distance" characterization (§VI-E flavour).
	renewDist *stats.Histogram

	resets *ResetController
	epoch  uint64
	fail   *diag.ProtocolError
}

// L2Geometry describes one bank's organization.
type L2Geometry struct {
	Sets int
	Ways int
	// PerCycle is the bank's request service rate (default 1).
	PerCycle int
}

// NewL2 builds bank bankID. sendNoC injects responses toward SMs;
// sendDRAM feeds the bank's memory partition. obs may be nil.
func NewL2(cfg Config, bankID int, geo L2Geometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	cfg.fillDefaults()
	if geo.PerCycle == 0 {
		geo.PerCycle = 1
	}
	return &L2{
		cfg:       cfg,
		bankID:    bankID,
		array:     cache.NewArray[l2Meta](geo.Sets, geo.Ways),
		memTS:     cfg.startTS(),
		miss:      make(map[mem.BlockAddr]*l2Miss),
		perCycle:  geo.PerCycle,
		sendNoC:   sendNoC,
		sendDRAM:  sendDRAM,
		obs:       obs,
		renewDist: stats.NewHistogram(),
		pool:      &mem.Pool{},
	}
}

// Pool exposes the bank's message pool so the paired DRAM partition
// can draw its fills from (and free its consumed requests into) the
// same free lists, closing the DRAM read/write loops.
func (l *L2) Pool() *mem.Pool { return l.pool }

// AttachResets wires the bank into the chip-wide overflow reset
// controller (§V-D). Optional; without it timestamps are assumed wide
// enough not to wrap (the controller panics if they do).
func (l *L2) AttachResets(rc *ResetController) {
	l.resets = rc
	rc.banks = append(rc.banks, l)
}

// Stats implements coherence.L2.
func (l *L2) Stats() *stats.L2Stats { return &l.stats }

// Pending implements coherence.L2.
func (l *L2) Pending() int {
	n := l.inQ.Len() + l.outNoC.Len() + l.outDRAM.Len()
	for _, m := range l.miss {
		n += len(m.waiting) + 1
	}
	return n
}

// Quiescent implements coherence.L2. Outstanding misses do not block
// quiescence: fills never stall (installFill evicts unconditionally in
// this non-inclusive design), so a miss entry only changes state when
// a DRAM fill message arrives, which the skip engine models as a
// scheduled event.
func (l *L2) Quiescent() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty()
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2) Drained() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty() && len(l.miss) == 0
}

// MemTS exposes the bank's memory timestamp (tests, trace tooling).
func (l *L2) MemTS() uint64 { return l.memTS }

// Epoch exposes the bank's current (full, unwrapped) timestamp epoch.
func (l *L2) Epoch() uint64 { return l.epoch }

// ForEachLease implements coherence.LeaseHolder: it visits every valid
// line's [wts, rts] lease, for invariant checking by the model checker.
func (l *L2) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	l.array.ForEach(func(c *cache.Line[l2Meta]) { fn(c.Addr, c.Meta.wts, c.Meta.rts) })
}

// RenewalDistances returns the histogram of rts extension distances —
// how far each read pushed a block's lease forward. Large values mean
// the reader's warp_ts had advanced far past the block (store-heavy
// phases); values near the lease length mean steady renewal.
func (l *L2) RenewalDistances() *stats.Histogram { return l.renewDist }

// failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (l *L2) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("gtsc-l2[%d]", l.bankID), event, format, args...)
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
	st := diag.CacheState{
		Name: "gtsc-l2", ID: l.bankID, Pending: l.Pending(),
		InQ: l.inQ.Len(), OutQ: l.outNoC.Len() + l.outDRAM.Len(), Misses: len(l.miss),
	}
	if st.Pending > 0 {
		st.Detail = l.DebugString()
	}
	return st
}

// Deliver implements coherence.L2: requests queue and are serviced at
// the bank's port rate in Tick, modeling shared-cache input contention.
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
	delete(l.miss, msg.Block)

	line := l.installFill(msg.Block, msg.Data)
	for _, waiting := range m.waiting {
		// Replay in arrival order. The line cannot be evicted between
		// replays within this call, so re-lookup is unnecessary. Each
		// replayed request is consumed by process and recycles here.
		l.process(waiting, line)
		l.pool.PutMsg(waiting)
	}
	l.freeMiss(m)
	// installFill copied the payload into the array; the fill message
	// returns to the pool it was drawn from (the partition shares ours).
	l.pool.PutMsg(msg)
}

// installFill allocates a line for a block arriving from DRAM, evicting
// any victim (non-inclusive: no constraint, never a stall), and assigns
// the lease [mem_ts, mem_ts+lease] (Fig 6).
func (l *L2) installFill(b mem.BlockAddr, data *mem.Block) *cache.Line[l2Meta] {
	victim := l.array.Victim(b, nil)
	if victim.Valid {
		l.evict(victim)
	}
	l.ensureRoom(l.memTS + l.cfg.Lease)
	l.array.Install(victim, b, data, l.now)
	victim.Meta.wts = l.memTS
	victim.Meta.rts = l.checked(l.memTS + l.cfg.Lease)
	victim.Meta.lease = l.cfg.Lease
	l.stats.DataAccesses++
	return victim
}

// evict writes back a dirty victim and folds its rts into mem_ts so
// future stores to the block order after every outstanding lease.
func (l *L2) evict(victim *cache.Line[l2Meta]) {
	l.stats.Evictions++
	l.memTS = maxu(l.memTS, victim.Meta.rts)
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

// process serves one request against a present line.
func (l *L2) process(msg *mem.Msg, line *cache.Line[l2Meta]) {
	switch msg.Type {
	case mem.BusRd:
		l.processRead(msg, line)
	case mem.BusWr:
		l.processWrite(msg, line)
	case mem.BusAtom:
		l.processAtomic(msg, line)
	default:
		l.failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}

// processAtomic performs a read-modify-write as an indivisible
// load+store at a single timestamp wts' = max(rts+1, warp_ts+1): the
// read half returns the value current at wts', the write half creates
// the new version — no stall, like every G-TSC write.
func (l *L2) processAtomic(msg *mem.Msg, line *cache.Line[l2Meta]) {
	if l.cfg.AdaptiveLease && line.Meta.lease > l.cfg.Lease {
		line.Meta.lease /= 2
		if line.Meta.lease < l.cfg.Lease {
			line.Meta.lease = l.cfg.Lease
		}
	}
	lease := l.lineLease(line)
	l.ensureRoom(maxu(line.Meta.rts+1, l.reqWarpTS(msg)+1) + lease)
	warpTS := l.reqWarpTS(msg)
	wts := l.checked(maxu(line.Meta.rts+1, warpTS+1))
	rts := l.checked(wts + lease)

	// The pre-update values return to the requester in the ack's
	// payload.
	ack := l.pool.Msg()
	*ack = mem.Msg{
		Type: mem.BusAtomAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		WTS: wts, RTS: rts, Mask: msg.Mask,
		ReqID: msg.ReqID, Warp: msg.Warp, Epoch: l.cfg.wireEpoch(l.epoch),
		Reset: l.staleReq(msg),
	}
	old := ack.Payload()
	mem.Merge(old, &line.Data, msg.Mask)
	for i := 0; i < mem.WordsPerBlock; i++ {
		if msg.Mask.Has(i) {
			line.Data.Words[i] = msg.Atom.Apply(line.Data.Words[i], msg.Data.Words[i])
		}
	}
	line.Dirty = true
	line.Meta.wts = wts
	line.Meta.rts = rts
	l.array.Touch(line, l.now)
	l.stats.DataAccesses++

	if l.obs != nil {
		// The read half observes the pre-update values, ordered just
		// before the write half at the same timestamp (same ts,
		// earlier physical sequence).
		l.obs.Observe(coherence.Op{
			SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
			Mask: msg.Mask, Data: *old, TS: l.unrolled(wts), Cycle: l.now,
		})
		var stored mem.Block
		mem.Merge(&stored, &line.Data, msg.Mask)
		l.obs.Observe(coherence.Op{
			SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
			Mask: msg.Mask, Data: stored, TS: l.unrolled(wts), Cycle: l.now,
		})
	}

	l.outNoC.Post(l.sendNoC, ack)
}

// reqWarpTS interprets the request's warp timestamp, discarding
// timestamps from a previous epoch (the requester will be told to
// reset via the response's Epoch/Reset fields). Epoch tags are
// decoded against the bank's own epoch as a ceiling so a narrow wire
// tag survives counter wraparound (see tswrap.go).
func (l *L2) reqWarpTS(msg *mem.Msg) uint64 {
	if l.staleReq(msg) {
		return initialTS
	}
	return msg.WarpTS
}

// staleReq reports whether the request was sent before the bank's
// current epoch began (its timestamps belong to a dead epoch). A
// requester can never be ahead of a bank — L1s learn epochs only from
// bank responses and all banks reset together — so the bank's own
// epoch is a ceiling for the decode and any non-current tag is stale,
// no matter how many resets the requester slept through (exact while
// the requester lags fewer than 2^EpochBits resets; the signed
// half-ring compare this replaces misread a lag of 2^(EpochBits-1) or
// more as "requester ahead").
func (l *L2) staleReq(msg *mem.Msg) bool {
	return l.cfg.epochAtMost(msg.Epoch, l.epoch) < l.epoch
}

// processRead implements Fig 4: renewal when the requester's version
// matches (dataless BusRnw), fill otherwise.
func (l *L2) processRead(msg *mem.Msg, line *cache.Line[l2Meta]) {
	// A same-version re-request means the fixed lease ran out while
	// the data stayed current: under the adaptive policy the block
	// earns a longer lease (Tardis-2.0-style prediction).
	if l.cfg.AdaptiveLease && !l.staleReq(msg) && msg.WTS == line.Meta.wts && line.Meta.lease < l.cfg.MaxLease {
		line.Meta.lease *= 2
		if line.Meta.lease > l.cfg.MaxLease {
			line.Meta.lease = l.cfg.MaxLease
		}
	}
	lease := l.lineLease(line)
	// A lease extension past the timestamp width triggers the
	// chip-wide reset first; afterwards every input is re-read in the
	// new epoch (the request's warp_ts is discarded as stale).
	l.ensureRoom(l.reqWarpTS(msg) + lease)
	warpTS := l.reqWarpTS(msg)
	newRTS := maxu(line.Meta.rts, warpTS+lease)
	if newRTS > line.Meta.rts {
		l.renewDist.Observe(newRTS - line.Meta.rts)
	}
	line.Meta.rts = newRTS
	l.array.Touch(line, l.now)

	stale := l.staleReq(msg)
	if !stale && msg.WTS == line.Meta.wts {
		// Same version at the requester: renew the lease without data.
		l.stats.RenewalsSent++
		rnw := l.pool.Msg()
		*rnw = mem.Msg{
			Type: mem.BusRnw, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
			RTS: newRTS, ReqID: msg.ReqID, Epoch: l.cfg.wireEpoch(l.epoch),
		}
		l.outNoC.Post(l.sendNoC, rnw)
		return
	}
	l.stats.FillsSent++
	l.stats.DataAccesses++
	fill := l.pool.Msg()
	*fill = mem.Msg{
		Type: mem.BusFill, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		WTS: line.Meta.wts, RTS: newRTS, ReqID: msg.ReqID,
		Epoch: l.cfg.wireEpoch(l.epoch), Reset: stale,
	}
	fill.SetData(&line.Data)
	l.outNoC.Post(l.sendNoC, fill)
}

// processWrite implements Fig 5: the store is logically scheduled
// strictly after every granted lease and after the writing warp's past
// (wts' = max(rts+1, warp_ts+1)) — no stall, ever.
func (l *L2) processWrite(msg *mem.Msg, line *cache.Line[l2Meta]) {
	// A write demotes an adaptive lease: the block is not read-only.
	if l.cfg.AdaptiveLease && line.Meta.lease > l.cfg.Lease {
		line.Meta.lease /= 2
		if line.Meta.lease < l.cfg.Lease {
			line.Meta.lease = l.cfg.Lease
		}
	}
	lease := l.lineLease(line)
	// Trigger the overflow reset before computing anything, then
	// recompute all inputs in the (possibly new) epoch.
	l.ensureRoom(maxu(line.Meta.rts+1, l.reqWarpTS(msg)+1) + lease)
	warpTS := l.reqWarpTS(msg)
	prevWTS := line.Meta.wts
	wts := l.checked(maxu(line.Meta.rts+1, warpTS+1))
	rts := l.checked(wts + lease)

	mem.Merge(&line.Data, msg.Data, msg.Mask)
	line.Dirty = true
	line.Meta.wts = wts
	line.Meta.rts = rts
	l.array.Touch(line, l.now)
	l.stats.DataAccesses++

	if l.obs != nil {
		var stored mem.Block
		mem.Merge(&stored, msg.Data, msg.Mask)
		l.obs.Observe(coherence.Op{
			SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
			Mask: msg.Mask, Data: stored, TS: l.unrolled(wts), Cycle: l.now,
		})
	}

	ack := l.pool.Msg()
	*ack = mem.Msg{
		Type: mem.BusWrAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		WTS: wts, RTS: rts, ReqID: msg.ReqID, Warp: msg.Warp, Epoch: l.cfg.wireEpoch(l.epoch),
		Reset: l.staleReq(msg),
	}
	if msg.WTS != mem.NoWTS && (msg.WTS != prevWTS || l.staleReq(msg)) {
		// The writer's cached base version was stale: return the
		// authoritative merged block so its L1 copy is coherent.
		ack.SetData(&line.Data)
	}
	l.outNoC.Post(l.sendNoC, ack)
}

func (l *L2) unrolled(ts uint64) uint64 { return l.epoch*(l.cfg.tsMax()+1) + ts }

// lineLease returns the lease to grant on a line (per-block under the
// adaptive policy, the fixed config lease otherwise).
func (l *L2) lineLease(line *cache.Line[l2Meta]) uint64 {
	if line.Meta.lease == 0 {
		line.Meta.lease = l.cfg.Lease
	}
	return line.Meta.lease
}

// ensureRoom triggers the chip-wide overflow reset (§V-D) when the
// worst-case timestamp a pending computation will produce does not fit
// in the configured width. Callers must re-read every timestamp input
// after calling it: the reset rewrites line metadata, mem_ts and the
// epoch (which in turn invalidates the request's stale warp_ts).
func (l *L2) ensureRoom(worst uint64) {
	if worst <= l.cfg.tsMax() {
		return
	}
	if l.resets == nil {
		l.failf("timestamp-overflow", "timestamp overflow (%d > %d) with no reset controller", worst, l.cfg.tsMax())
		return
	}
	l.resets.trigger(l)
}

// checked asserts a computed timestamp fits the width; ensureRoom must
// have created space beforehand, so a failure is a protocol bug.
func (l *L2) checked(ts uint64) uint64 {
	if ts > l.cfg.tsMax() {
		l.failf("timestamp-width", "timestamp %d exceeds width after reset (lease too large for TSBits?)", ts)
		return l.cfg.tsMax()
	}
	return ts
}

// reset is invoked by the ResetController on every bank: wts of all
// blocks restarts at 1, rts at lease, mem_ts at 1 (§V-D). Data is
// up-to-date in L2, so nothing flushes here; L1s learn of the new
// epoch from response messages and flush themselves.
func (l *L2) reset(epoch uint64) {
	l.epoch = epoch
	l.stats.TSResets++
	l.array.ForEach(func(c *cache.Line[l2Meta]) {
		c.Meta.wts = initialTS
		c.Meta.rts = initialTS + l.cfg.Lease
		c.Meta.lease = l.cfg.Lease
	})
	l.memTS = initialTS
}

// SyncClock implements coherence.L2.
func (l *L2) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L2: drain output backpressure first, then
// service up to perCycle queued requests.
func (l *L2) Tick(now uint64) {
	l.now = now
	l.outNoC.Drain(l.sendNoC)
	l.outDRAM.Drain(l.sendDRAM)
	if !l.outNoC.Empty() || !l.outDRAM.Empty() {
		return // head-of-line: do not accept new work while blocked
	}
	for i := 0; i < l.perCycle && !l.inQ.Empty(); i++ {
		l.service(l.inQ.Pop())
	}
}

// service handles one request from the NoC.
func (l *L2) service(msg *mem.Msg) {
	switch msg.Type {
	case mem.BusRd:
		l.stats.Reads++
	case mem.BusWr:
		l.stats.Writes++
	case mem.BusAtom:
		l.stats.Atomics++
	default:
		l.failf("unexpected-message", "request %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
		return
	}
	l.stats.TagProbes++

	if m, ok := l.miss[msg.Block]; ok {
		// A fill for this block is in flight; preserve order behind it.
		m.waiting = append(m.waiting, msg)
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		l.stats.Misses++
		m := l.newMiss(msg.Block)
		m.waiting = append(m.waiting, msg)
		rd := l.pool.Msg()
		*rd = mem.Msg{Type: mem.DRAMRd, Block: msg.Block, Src: l.bankID, Dst: l.bankID}
		l.outDRAM.Post(l.sendDRAM, rd)
		return
	}
	l.stats.Hits++
	l.process(msg, line)
	// The request was served synchronously; recycle it.
	l.pool.PutMsg(msg)
}

// newMiss registers an outstanding DRAM read for b, reusing a retired
// entry (and its waiting list's capacity) when one is free.
func (l *L2) newMiss(b mem.BlockAddr) *l2Miss {
	m := l.freeMisses.Get()
	m.block = b
	l.miss[b] = m
	return m
}

// freeMiss retires a miss entry whose waiting requests have all been
// replayed.
func (l *L2) freeMiss(m *l2Miss) {
	clear(m.waiting)
	m.waiting = m.waiting[:0]
	l.freeMisses.Put(m)
}

// ResetController coordinates the chip-wide timestamp overflow reset:
// the overflowing bank "sends a reset signal to all L2 cache banks"
// (§V-D) and every bank restarts its timestamps in a new epoch.
type ResetController struct {
	banks []*L2
	epoch uint64
	count uint64

	// MutSkipBroadcast is a test-only protocol mutation: a triggered
	// reset is applied only to the overflowing bank instead of being
	// broadcast chip-wide, leaving the other banks in the old epoch.
	// It exists so the model checker's mutation tests can prove the
	// epoch-agreement invariant has teeth; never set it in a real run.
	MutSkipBroadcast bool
}

// NewResetController returns an empty controller; banks join via
// (*L2).AttachResets.
func NewResetController() *ResetController { return &ResetController{} }

// Resets reports how many overflow resets occurred.
func (rc *ResetController) Resets() uint64 { return rc.count }

// Epoch reports the current timestamp epoch.
func (rc *ResetController) Epoch() uint64 { return rc.epoch }

func (rc *ResetController) trigger(origin *L2) {
	rc.epoch++
	rc.count++
	for _, b := range rc.banks {
		if rc.MutSkipBroadcast && origin != nil && b != origin {
			continue
		}
		b.reset(rc.epoch)
	}
}

// ForceReset triggers a chip-wide overflow reset out of band — the
// fault package's rollover plan uses it to exercise the §V-D protocol
// mid-run instead of only near a natural wraparound. It is exactly the
// reset an overflowing bank would trigger, minus the overflow.
func (rc *ResetController) ForceReset() { rc.trigger(nil) }

// Peek implements coherence.L2 (verification hook).
func (l *L2) Peek(b mem.BlockAddr) (*mem.Block, bool) {
	line := l.array.Lookup(b)
	if line == nil {
		return nil, false
	}
	return &line.Data, true
}

// DebugString renders the bank's transient state for deadlock
// diagnosis and the gtsctrace tool.
func (l *L2) DebugString() string {
	s := fmt.Sprintf("L2[bank%d] epoch=%d memTS=%d inQ=%d outNoC=%d outDRAM=%d\n",
		l.bankID, l.epoch, l.memTS, l.inQ.Len(), l.outNoC.Len(), l.outDRAM.Len())
	for b, m := range l.miss {
		s += fmt.Sprintf("  miss %v waiting=%d\n", b, len(m.waiting))
	}
	return s
}
