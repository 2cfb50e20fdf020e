package core

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// l2Meta is the per-line G-TSC metadata in the shared cache.
type l2Meta struct {
	wts uint64
	rts uint64
	// lease is the block's current lease length (== cfg.Lease unless
	// AdaptiveLease adjusts it per access history).
	lease uint64
}

// L2 is one G-TSC shared cache bank. It implements coherence.L2.
//
// The L2 is non-inclusive (§V-C): evictions never stall; the victim's
// rts folds into the bank's single mem_ts, and later stores to a
// refetched block order after mem_ts by timestamp assignment rather
// than by waiting.
type L2 struct {
	coherence.Bank[l2Meta]
	cfg   Config
	memTS uint64

	resets *ResetController
	epoch  uint64
}

// NewL2 builds bank bankID. sendNoC injects responses toward SMs;
// sendDRAM feeds the bank's memory partition. obs may be nil.
func NewL2(cfg Config, bankID int, geo coherence.BankGeometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	cfg.fillDefaults()
	return &L2{
		Bank:  coherence.NewBank[l2Meta]("gtsc-l2", bankID, geo, sendNoC, sendDRAM, obs),
		cfg:   cfg,
		memTS: cfg.startTS(),
	}
}

// AttachResets wires the bank into the chip-wide overflow reset
// controller (§V-D). Optional; without it timestamps are assumed wide
// enough not to wrap (the controller panics if they do).
func (l *L2) AttachResets(rc *ResetController) {
	l.resets = rc
	rc.banks = append(rc.banks, l)
}

// MemTS exposes the bank's memory timestamp (tests, trace tooling).
func (l *L2) MemTS() uint64 { return l.memTS }

// Epoch exposes the bank's current (full, unwrapped) timestamp epoch.
func (l *L2) Epoch() uint64 { return l.epoch }

// ForEachLease implements coherence.LeaseHolder: it visits every valid
// line's [wts, rts] lease, for invariant checking by the model checker.
func (l *L2) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	l.Array.ForEach(func(c *cache.Line[l2Meta]) { fn(c.Addr, c.Meta.wts, c.Meta.rts) })
}

// DumpState implements coherence.L2.
func (l *L2) DumpState() diag.CacheState {
	st := l.Bank.DumpState()
	if st.Pending > 0 {
		st.Detail = l.DebugString()
	}
	return st
}

// Deliver implements coherence.L2: requests queue and are serviced at
// the bank's port rate in Tick, modeling shared-cache input contention.
func (l *L2) Deliver(msg *mem.Msg) { l.Enqueue(msg) }

// DRAMFill implements coherence.L2.
func (l *L2) DRAMFill(msg *mem.Msg) {
	m := l.Landed(msg)
	if m == nil {
		return
	}
	line := l.installFill(m)
	for _, waiting := range m.Waiting {
		// Replay in arrival order. The line cannot be evicted between
		// replays within this call, so re-lookup is unnecessary. Each
		// replayed request is consumed by process and recycles here.
		l.process(waiting, line)
		l.Free(waiting)
	}
	l.Retire(m)
}

// installFill allocates a line for a block arriving from DRAM, evicting
// any victim (non-inclusive: no constraint, never a stall), and assigns
// the lease [mem_ts, mem_ts+lease] (Fig 6).
func (l *L2) installFill(m *coherence.Miss) *cache.Line[l2Meta] {
	victim := l.Array.Victim(m.Block, nil)
	if victim.Valid {
		l.evict(victim)
	}
	l.ensureRoom(l.memTS + l.cfg.Lease)
	l.Install(m, victim)
	victim.Meta.wts = l.memTS
	victim.Meta.rts = l.checked(l.memTS + l.cfg.Lease)
	victim.Meta.lease = l.cfg.Lease
	return victim
}

// evict writes back a dirty victim and folds its rts into mem_ts so
// future stores to the block order after every outstanding lease.
func (l *L2) evict(victim *cache.Line[l2Meta]) {
	l.memTS = maxu(l.memTS, victim.Meta.rts)
	l.Evict(victim)
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
		l.Failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
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

	// The read half observes the pre-update values, ordered just before
	// the write half at the same timestamp (same ts, earlier physical
	// sequence); the ack returns them to the requester.
	ack := l.Atomic(msg, line, l.unrolled(wts))
	ack.WTS, ack.RTS, ack.Epoch, ack.Reset = wts, rts, l.cfg.wireEpoch(l.epoch), l.staleReq(msg)
	line.Meta.wts = wts
	line.Meta.rts = rts
	l.Respond(ack)
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
	line.Meta.rts = newRTS
	l.Array.Touch(line, l.Now)

	stale := l.staleReq(msg)
	if !stale && msg.WTS == line.Meta.wts {
		// Same version at the requester: renew the lease without data.
		l.Counters.RenewalsSent++
		rnw := l.Reply(mem.BusRnw, msg)
		rnw.RTS, rnw.Epoch = newRTS, l.cfg.wireEpoch(l.epoch)
		l.Respond(rnw)
		return
	}
	l.Counters.FillsSent++
	l.Counters.DataAccesses++
	fill := l.Reply(mem.BusFill, msg)
	fill.WTS, fill.RTS, fill.Epoch, fill.Reset = line.Meta.wts, newRTS, l.cfg.wireEpoch(l.epoch), stale
	fill.SetData(&line.Data)
	l.Respond(fill)
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
	l.Array.Touch(line, l.Now)
	l.Counters.DataAccesses++

	l.ObserveStore(msg, l.unrolled(wts))
	ack := l.Reply(mem.BusWrAck, msg)
	ack.WTS, ack.RTS, ack.Warp = wts, rts, msg.Warp
	ack.Epoch, ack.Reset = l.cfg.wireEpoch(l.epoch), l.staleReq(msg)
	if msg.WTS != mem.NoWTS && (msg.WTS != prevWTS || l.staleReq(msg)) {
		// The writer's cached base version was stale: return the
		// authoritative merged block so its L1 copy is coherent.
		ack.SetData(&line.Data)
	}
	l.Respond(ack)
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
		l.Failf("timestamp-overflow", "timestamp overflow (%d > %d) with no reset controller", worst, l.cfg.tsMax())
		return
	}
	l.resets.trigger(l)
}

// checked asserts a computed timestamp fits the width; ensureRoom must
// have created space beforehand, so a failure is a protocol bug.
func (l *L2) checked(ts uint64) uint64 {
	if ts > l.cfg.tsMax() {
		l.Failf("timestamp-width", "timestamp %d exceeds width after reset (lease too large for TSBits?)", ts)
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
	l.Counters.TSResets++
	l.Array.ForEach(func(c *cache.Line[l2Meta]) {
		c.Meta.wts = initialTS
		c.Meta.rts = initialTS + l.cfg.Lease
		c.Meta.lease = l.cfg.Lease
	})
	l.memTS = initialTS
}

// Tick implements coherence.L2: drain output backpressure first, then
// service up to the port rate of queued requests — unless output is
// still blocked (head-of-line: no new work while blocked).
func (l *L2) Tick(now uint64) {
	l.Drain(now)
	if !l.Blocked() {
		l.Service(l.service)
	}
}

// service handles one request from the NoC.
func (l *L2) service(msg *mem.Msg) {
	if !l.Accept(msg) {
		return
	}
	line := l.Array.Lookup(msg.Block)
	if line == nil {
		// Absent, or its fill in flight: order behind the DRAM read.
		l.Fetch(msg)
		return
	}
	l.Counters.Hits++
	l.process(msg, line)
	// The request was served synchronously; recycle it.
	l.Free(msg)
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

// DebugString renders the bank's transient state (queues, misses in
// block order) for deadlock diagnosis.
func (l *L2) DebugString() string {
	return fmt.Sprintf("L2[bank%d] epoch=%d memTS=%d ", l.ID, l.epoch, l.memTS) + l.Bank.DebugString()
}
