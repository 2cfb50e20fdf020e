package tc

import (
	"cmp"
	"slices"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
)

// L2 is one TC shared cache bank. It implements coherence.L2.
//
// Its lines carry the latest lease expiry granted to any L1. A fill
// may stall for a victim (inclusion: only expired lines can be
// replaced), which is TC's delayed-eviction stall (§II-D3); the bank
// retries it every tick, counting EvictStalls. A TC-Strong write to a
// leased block parks until the lease expires, counting WriteStalls
// every cycle it waits. The parked blocks are ordered by expiry, so a
// tick touches only those that come due, and a bank with nothing else
// to do sleeps until the earliest expiry (Wake); SyncClock credits the
// WriteStalls of the cycles it slept.
type L2 struct {
	coherence.Bank[lease]
	cfg Config
	// blocked holds, per block, a stalled TC-Strong write at the head
	// and every request that arrived behind it, serviced in order once
	// the block's leases expire.
	blocked mem.Table[mem.BlockAddr, []*mem.Msg]
	// waits lists the blocked blocks in (lease expiry, block) order.
	// A blocked line's expiry cannot move: every request for the block
	// queues behind the write, and a blocked line is never a victim.
	waits []blockWait
	// freeQueues recycles retired blocked queues with their capacity.
	freeQueues [][]*mem.Msg
	due        []mem.BlockAddr // resumeBlocked's due blocks (hot path)

	// MutIgnoreWriteStall is a test-only mutation hook for the model
	// checker's teeth: when set, TC-Strong writes commit without waiting
	// for the block's leases to expire — exactly the stall §II-D3 exists
	// to enforce — so L1s holding live leases read stale data.
	MutIgnoreWriteStall bool
}

// blockWait is one blocked block and the lease expiry it waits for.
type blockWait struct {
	expiry uint64
	block  mem.BlockAddr
}

func cmpWait(a, b blockWait) int {
	if c := cmp.Compare(a.expiry, b.expiry); c != 0 {
		return c
	}
	return cmp.Compare(a.block, b.block)
}

// NewL2 builds TC bank bankID.
func NewL2(cfg Config, bankID int, geo coherence.BankGeometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	cfg.fillDefaults()
	return &L2{
		Bank: coherence.NewBank[lease]("tc-l2", bankID, geo, sendNoC, sendDRAM, obs),
		cfg:  cfg,
	}
}

// Pending implements coherence.L2.
func (l *L2) Pending() int {
	n := l.Bank.Pending()
	l.blocked.Each(func(_ mem.BlockAddr, q []*mem.Msg) { n += len(q) })
	return n
}

// Quiescent implements coherence.L2. Blocked write queues bar
// quiescence because they resume on lease expiry (a time-based event,
// counting WriteStalls every waiting cycle), as do stalled fills.
func (l *L2) Quiescent() bool { return l.Bank.Quiescent() && l.blocked.Len() == 0 }

// Wake implements coherence.L2. A bank whose only work is blocked
// writes wakes at the earliest expiry among them: until then a tick
// would only count their stall cycles, which SyncClock credits.
// Stalled fills retry every cycle, so they keep the bank Hot.
func (l *L2) Wake(now uint64) uint64 {
	switch {
	case !l.Bank.Quiescent():
		return sched.Hot
	case len(l.waits) == 0:
		return sched.Never
	case l.waits[0].expiry > now:
		return l.waits[0].expiry
	}
	return sched.Hot // a due block resumes at the next tick
}

// SyncClock implements coherence.L2. It counts the WriteStalls of the
// ticks the bank skipped through cycle now: no blocked block comes due
// before the earliest expiry, which the bank wakes for, so each
// skipped cycle counts them all.
func (l *L2) SyncClock(now uint64) {
	if now > l.Now {
		l.Counters.WriteStalls += uint64(len(l.waits)) * (now - l.Now)
	}
	l.Now = now
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2) Drained() bool { return l.Bank.Drained() && l.blocked.Len() == 0 }

// DumpState implements coherence.L2.
func (l *L2) DumpState() diag.CacheState {
	st := l.Bank.DumpState()
	st.Pending = l.Pending()
	l.blocked.Each(func(_ mem.BlockAddr, q []*mem.Msg) { st.Blocked += len(q) })
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

// tryInstall attempts to place a returned fill. Inclusion forbids
// evicting lines with live leases; when the whole set is leased the
// fill stalls and retries every cycle (EvictStalls counts those
// cycles).
func (l *L2) tryInstall(m *coherence.Miss) {
	victim := l.Array.Victim(m.Block, func(c *cache.Line[lease]) bool {
		return c.Meta.expiry <= l.Now && !l.blocked.Has(c.Addr)
	})
	if victim == nil {
		l.Counters.EvictStalls++
		l.Stall(m)
		return
	}
	if victim.Valid {
		l.Evict(victim)
	}
	l.Install(m, victim)
	l.runQueue(m.Block, victim, m.Waiting)
	l.Retire(m)
}

// runQueue services msgs against line in order until a TC-Strong write
// must stall; the stalling write and everything behind it park in
// l.blocked for Tick to resume.
func (l *L2) runQueue(block mem.BlockAddr, line *cache.Line[lease], msgs []*mem.Msg) {
	for i, msg := range msgs {
		if l.mustStall(msg, line) {
			l.park(block, line.Meta.expiry, msgs[i:]...)
			return
		}
		l.process(msg, line)
	}
}

// mustStall reports whether msg is a TC-Strong write (or atomic) that
// has to wait for the line's leases to expire.
func (l *L2) mustStall(msg *mem.Msg, line *cache.Line[lease]) bool {
	writesBack := msg.Type == mem.BusWr || msg.Type == mem.BusAtom
	return writesBack && !l.cfg.Weak && line.Meta.expiry > l.Now && !l.MutIgnoreWriteStall
}

// park appends msgs to block's blocked queue. A new queue starts on a
// recycled slice and waits for expiry, the line's lease.
func (l *L2) park(block mem.BlockAddr, expiry uint64, msgs ...*mem.Msg) {
	q, ok := l.blocked.Get(block)
	if !ok {
		if n := len(l.freeQueues); n > 0 {
			q = l.freeQueues[n-1]
			l.freeQueues = l.freeQueues[:n-1]
		}
		w := blockWait{expiry, block}
		i, _ := slices.BinarySearchFunc(l.waits, w, cmpWait)
		l.waits = slices.Insert(l.waits, i, w)
	}
	l.blocked.Put(block, append(q, msgs...))
}

// process serves one request against a present line and frees it: the
// request is fully consumed once its response is posted. TC-Strong
// callers guarantee a write's or atomic's lease has expired; TC-Weak
// performs it at once and reports the Global Write Completion Time
// (when every private copy will have self-invalidated) in the ack.
func (l *L2) process(msg *mem.Msg, line *cache.Line[lease]) {
	defer l.Free(msg)
	gwct := maxu(line.Meta.expiry, l.Now)
	var ack *mem.Msg
	switch msg.Type {
	case mem.BusRd:
		// Extend the block's lease and return data — TC responses always
		// carry the block, unlike G-TSC's dataless renewals, which is
		// one source of its extra NoC traffic (Fig 15).
		line.Meta.expiry = maxu(line.Meta.expiry, l.Now+l.cfg.Lease)
		l.Array.Touch(line, l.Now)
		l.Counters.FillsSent++
		l.Counters.DataAccesses++
		fill := l.Reply(mem.BusFill, msg)
		fill.RTS = line.Meta.expiry
		fill.SetData(&line.Data)
		l.Respond(fill)
		return
	case mem.BusWr:
		mem.Merge(&line.Data, msg.Data, msg.Mask)
		line.Dirty = true
		l.Array.Touch(line, l.Now)
		l.Counters.DataAccesses++
		l.ObserveStore(msg, 0)
		ack = l.Reply(mem.BusWrAck, msg)
		ack.Warp = msg.Warp
	case mem.BusAtom:
		ack = l.Atomic(msg, line, 0)
	default:
		l.Failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
		return
	}
	if l.cfg.Weak {
		ack.GWCT = gwct
	}
	l.Respond(ack)
}

// Tick implements coherence.L2. The lease-expiry resumes and the
// stalled-fill retries run before the head-of-line check: both can
// post output, which must block new requests this very cycle.
func (l *L2) Tick(now uint64) {
	l.SyncClock(now - 1) // the cycles slept before this one
	l.Drain(now)
	l.resumeBlocked()
	l.RetryStalled(l.tryInstall)
	if !l.Blocked() {
		l.Service(l.service)
	}
}

// resumeBlocked re-runs each parked queue whose head write's leases
// have expired, and counts a stall cycle for each block still waiting
// (the paper's lease-induced stall, §II-D3). The due blocks are the
// head of waits; they resume in address order so runs are
// reproducible. A block that blocks again re-enters waits under its
// new expiry, which lies in the future, so it is not resumed twice.
func (l *L2) resumeBlocked() {
	n := 0
	for n < len(l.waits) && l.waits[n].expiry <= l.Now {
		n++
	}
	l.Counters.WriteStalls += uint64(len(l.waits) - n)
	if n == 0 {
		return
	}
	due := l.due[:0]
	for _, w := range l.waits[:n] {
		due = append(due, w.block)
	}
	l.due = due
	l.waits = slices.Delete(l.waits, 0, n)
	slices.Sort(due)
	for _, block := range due {
		line := l.Array.Lookup(block)
		if line == nil {
			l.Failf("blocked-line-vanished", "blocked queue for %v lost its line", block)
			return
		}
		q, _ := l.blocked.Delete(block)
		l.runQueue(block, line, q)
		clear(q)
		l.freeQueues = append(l.freeQueues, q[:0])
	}
}

func (l *L2) service(msg *mem.Msg) {
	if !l.Accept(msg) {
		return
	}
	if q, ok := l.blocked.Get(msg.Block); ok {
		// Order behind the stalled write.
		l.blocked.Put(msg.Block, append(q, msg))
		return
	}
	line := l.Array.Lookup(msg.Block)
	if line == nil {
		l.Fetch(msg)
		return
	}
	l.Counters.Hits++
	if l.mustStall(msg, line) {
		l.park(msg.Block, line.Meta.expiry, msg)
		return
	}
	l.process(msg, line)
}

// MsgPending reports message-driven work: queued input not yet
// serviced, or output not yet injected. Time-driven work (blocked
// TC-Strong writes, installs stalled on unexpired victims) is excluded
// — it resolves by the passage of time, not by message processing. The
// model checker uses this to advance its clock only when every message
// in flight has been fully absorbed, which excludes zeno behaviors
// (e.g. a lease expiring in flight forever re-sending the same read)
// while preserving the expiry-vs-access races.
func (l *L2) MsgPending() bool { return l.Busy() }

// ForEachLease implements coherence.LeaseHolder: each resident line's
// granted lease as (0, expiry) in physical time.
func (l *L2) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	forEachLease(l.Array, fn)
}

// NextTimeEvent implements coherence.TimeSensitive: the earliest future
// lease expiry, which unblocks parked TC-Strong writes and frees
// eviction victims for stalled fills.
func (l *L2) NextTimeEvent(now uint64) (uint64, bool) { return nextExpiry(l.Array, now) }
