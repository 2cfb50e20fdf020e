package tc

import (
	"fmt"
	"slices"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// l2Meta is the per-line TC metadata: the latest lease expiry granted
// to any L1, in global cycles.
type l2Meta struct {
	expiry uint64
}

// l2Miss tracks an outstanding DRAM read. Once data arrives it may
// still wait for an evictable victim (inclusion: only expired lines
// can be replaced), which is TC's delayed-eviction stall (§II-D3).
type l2Miss struct {
	block   mem.BlockAddr
	waiting []*mem.Msg
	filled  bool      // DRAM returned data but the install stalled
	data    mem.Block // the returned block, valid when filled
}

// L2 is one TC shared cache bank. It implements coherence.L2.
type L2 struct {
	cfg    Config
	bankID int
	now    uint64

	array *cache.Array[l2Meta]
	miss  map[mem.BlockAddr]*l2Miss
	// blocked holds, per block, a stalled TC-Strong write at the head
	// and every request that arrived behind it, serviced in order once
	// the block's leases expire.
	blocked map[mem.BlockAddr][]*mem.Msg

	// freeMisses and freeQueues recycle retired miss entries and
	// blocked queues together with their slices' capacity.
	freeMisses mem.FreeList[l2Miss]
	freeQueues [][]*mem.Msg

	inQ      mem.MsgQueue
	perCycle int

	sendNoC  coherence.Sender
	sendDRAM coherence.Sender
	outNoC   mem.MsgQueue
	outDRAM  mem.MsgQueue
	// pool recycles the bank's responses plus the requests it consumes;
	// the bank's DRAM partition shares it.
	pool *mem.Pool

	stats   stats.L2Stats
	obs     coherence.Observer
	fail    *diag.ProtocolError
	scratch []mem.BlockAddr // reusable sorted-block buffer (hot path)

	// MutIgnoreWriteStall is a test-only mutation hook for the model
	// checker's teeth: when set, TC-Strong writes commit without waiting
	// for the block's leases to expire — exactly the stall §II-D3 exists
	// to enforce — so L1s holding live leases read stale data.
	MutIgnoreWriteStall bool

	// stalledFills counts misses whose DRAM data has returned but whose
	// install stalled on unexpired victims (m.data != nil). While any
	// fill is stalled, Tick retries installs (and counts EvictStalls)
	// every cycle, so the bank must not be treated as quiescent.
	stalledFills int
}

// Pool implements coherence.L2.
func (l *L2) Pool() *mem.Pool { return l.pool }

// Geometry describes one bank's organization.
type L2Geometry struct {
	Sets     int
	Ways     int
	PerCycle int
}

// NewL2 builds TC bank bankID.
func NewL2(cfg Config, bankID int, geo L2Geometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2 {
	cfg.fillDefaults()
	if geo.PerCycle == 0 {
		geo.PerCycle = 1
	}
	return &L2{
		cfg:      cfg,
		bankID:   bankID,
		array:    cache.NewArray[l2Meta](geo.Sets, geo.Ways),
		miss:     make(map[mem.BlockAddr]*l2Miss),
		blocked:  make(map[mem.BlockAddr][]*mem.Msg),
		perCycle: geo.PerCycle,
		sendNoC:  sendNoC,
		sendDRAM: sendDRAM,
		obs:      obs,
		pool:     &mem.Pool{},
	}
}

// Stats implements coherence.L2.
func (l *L2) Stats() *stats.L2Stats { return &l.stats }

// Pending implements coherence.L2.
func (l *L2) Pending() int {
	n := l.inQ.Len() + l.outNoC.Len() + l.outDRAM.Len()
	for _, m := range l.miss {
		n += len(m.waiting) + 1
	}
	for _, q := range l.blocked {
		n += len(q)
	}
	return n
}

// Quiescent implements coherence.L2. Blocked write queues bar
// quiescence because they resume on lease expiry (a time-based event,
// counting WriteStalls every waiting cycle); stalled fills bar it
// because Tick retries installs (counting EvictStalls) every cycle.
// A plain outstanding miss is fine: it only changes state when its
// DRAM fill message arrives.
func (l *L2) Quiescent() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty() &&
		len(l.blocked) == 0 && l.stalledFills == 0
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2) Drained() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty() &&
		len(l.miss) == 0 && len(l.blocked) == 0
}

// failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (l *L2) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("tc-l2[%d]", l.bankID), event, format, args...)
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
	for _, q := range l.blocked {
		blocked += len(q)
	}
	return diag.CacheState{
		Name: "tc-l2", ID: l.bankID, Pending: l.Pending(),
		InQ: l.inQ.Len(), OutQ: l.outNoC.Len() + l.outDRAM.Len(),
		Misses: len(l.miss), Blocked: blocked,
	}
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

// tryInstall attempts to place a returned fill. Inclusion forbids
// evicting lines with live leases; when the whole set is leased the
// fill stalls and retries every cycle (EvictStalls counts those
// cycles).
func (l *L2) tryInstall(m *l2Miss) {
	victim := l.array.Victim(m.block, func(c *cache.Line[l2Meta]) bool {
		return c.Meta.expiry <= l.now && l.blocked[c.Addr] == nil
	})
	if victim == nil {
		l.stats.EvictStalls++
		return
	}
	if victim.Valid {
		l.evict(victim)
	}
	l.array.Install(victim, m.block, &m.data, l.now)
	l.stats.DataAccesses++
	delete(l.miss, m.block)
	l.stalledFills--
	l.runQueue(m.block, victim, m.waiting)
	l.freeMiss(m)
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
// replayed or parked.
func (l *L2) freeMiss(m *l2Miss) {
	clear(m.waiting)
	*m = l2Miss{waiting: m.waiting[:0]}
	l.freeMisses.Put(m)
}

func (l *L2) evict(victim *cache.Line[l2Meta]) {
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

// runQueue services msgs against line in order until a TC-Strong write
// must stall; the stalling write and everything behind it park in
// l.blocked for Tick to resume.
func (l *L2) runQueue(block mem.BlockAddr, line *cache.Line[l2Meta], msgs []*mem.Msg) {
	for i, msg := range msgs {
		if l.mustStall(msg, line) {
			l.park(block, msgs[i:]...)
			return
		}
		l.process(msg, line)
	}
}

// mustStall reports whether msg is a TC-Strong write (or atomic) that
// has to wait for the line's leases to expire.
func (l *L2) mustStall(msg *mem.Msg, line *cache.Line[l2Meta]) bool {
	writesBack := msg.Type == mem.BusWr || msg.Type == mem.BusAtom
	return writesBack && !l.cfg.Weak && line.Meta.expiry > l.now && !l.MutIgnoreWriteStall
}

// park appends msgs to block's blocked queue, starting the queue on a
// recycled slice.
func (l *L2) park(block mem.BlockAddr, msgs ...*mem.Msg) {
	q, ok := l.blocked[block]
	if !ok {
		if n := len(l.freeQueues); n > 0 {
			q = l.freeQueues[n-1]
			l.freeQueues = l.freeQueues[:n-1]
		}
	}
	l.blocked[block] = append(q, msgs...)
}

// process serves one request against a present line and frees it: the
// request is fully consumed once its response is posted.
func (l *L2) process(msg *mem.Msg, line *cache.Line[l2Meta]) {
	defer l.pool.PutMsg(msg)
	switch msg.Type {
	case mem.BusRd:
		l.processRead(msg, line)
	case mem.BusWr:
		l.performWrite(msg, line)
	case mem.BusAtom:
		l.performAtomic(msg, line)
	default:
		l.failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}

// performAtomic commits a read-modify-write at the L2. TC-Strong
// callers guarantee the lease has expired (runQueue stalls it like a
// write); TC-Weak performs immediately and reports the GWCT.
func (l *L2) performAtomic(msg *mem.Msg, line *cache.Line[l2Meta]) {
	gwct := maxu(line.Meta.expiry, l.now)
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
	if l.cfg.Weak {
		ack.GWCT = gwct
	}
	l.outNoC.Post(l.sendNoC, ack)
}

// processRead extends the block's lease and returns data — TC
// responses always carry the block, unlike G-TSC's dataless renewals,
// which is one source of its extra NoC traffic (Fig 15).
func (l *L2) processRead(msg *mem.Msg, line *cache.Line[l2Meta]) {
	line.Meta.expiry = maxu(line.Meta.expiry, l.now+l.cfg.Lease)
	l.array.Touch(line, l.now)
	l.stats.FillsSent++
	l.stats.DataAccesses++
	fill := l.pool.Msg()
	*fill = mem.Msg{
		Type: mem.BusFill, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		RTS: line.Meta.expiry, ReqID: msg.ReqID,
	}
	fill.SetData(&line.Data)
	l.outNoC.Post(l.sendNoC, fill)
}

// performWrite commits a write at the L2. TC-Strong callers guarantee
// the lease has expired; TC-Weak commits immediately and reports the
// write's global completion time (GWCT = when all private copies will
// have self-invalidated) in the acknowledgment.
func (l *L2) performWrite(msg *mem.Msg, line *cache.Line[l2Meta]) {
	gwct := maxu(line.Meta.expiry, l.now)
	mem.Merge(&line.Data, msg.Data, msg.Mask)
	line.Dirty = true
	l.array.Touch(line, l.now)
	l.stats.DataAccesses++
	if l.obs != nil {
		var stored mem.Block
		mem.Merge(&stored, msg.Data, msg.Mask)
		l.obs.Observe(coherence.Op{
			SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
			Mask: msg.Mask, Data: stored, Cycle: l.now,
		})
	}
	ack := l.pool.Msg()
	*ack = mem.Msg{
		Type: mem.BusWrAck, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
		ReqID: msg.ReqID, Warp: msg.Warp,
	}
	if l.cfg.Weak {
		ack.GWCT = gwct
	}
	l.outNoC.Post(l.sendNoC, ack)
}

// SyncClock implements coherence.L2. The bank clock gates lease-expiry
// eviction eligibility and write-unblocking, and stamps granted leases,
// so it must track the machine clock across skipped ticks.
func (l *L2) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L2.
func (l *L2) Tick(now uint64) {
	l.now = now
	l.outNoC.Drain(l.sendNoC)
	l.outDRAM.Drain(l.sendDRAM)
	l.resumeBlocked()
	l.retryInstalls()
	if !l.outNoC.Empty() || !l.outDRAM.Empty() {
		return
	}
	for i := 0; i < l.perCycle && !l.inQ.Empty(); i++ {
		l.service(l.inQ.Pop())
	}
}

// resumeBlocked re-runs each parked queue whose head write's leases
// have expired, and counts the stall cycles of those still waiting
// (the paper's lease-induced stall, §II-D3). Blocks resume in address
// order so runs are reproducible.
func (l *L2) resumeBlocked() {
	if len(l.blocked) == 0 {
		return
	}
	blocks := l.scratch[:0]
	for block := range l.blocked {
		blocks = append(blocks, block)
	}
	l.scratch = blocks
	slices.Sort(blocks)
	for _, block := range blocks {
		q := l.blocked[block]
		line := l.array.Lookup(block)
		if line == nil {
			l.failf("blocked-line-vanished", "blocked queue for %v lost its line", block)
			return
		}
		if line.Meta.expiry > l.now && !l.MutIgnoreWriteStall {
			l.stats.WriteStalls++
			continue
		}
		delete(l.blocked, block)
		l.runQueue(block, line, q)
		clear(q)
		l.freeQueues = append(l.freeQueues, q[:0])
	}
}

// retryInstalls re-attempts stalled fills in address order so victim
// selection is reproducible.
func (l *L2) retryInstalls() {
	if l.stalledFills == 0 {
		return
	}
	blocks := l.scratch[:0]
	for block, m := range l.miss {
		if m.filled {
			blocks = append(blocks, block)
		}
	}
	l.scratch = blocks
	slices.Sort(blocks)
	for _, block := range blocks {
		if m, ok := l.miss[block]; ok && m.filled {
			l.tryInstall(m)
		}
	}
}

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

	if _, ok := l.blocked[msg.Block]; ok {
		// Order behind the stalled write.
		l.park(msg.Block, msg)
		return
	}
	if m, ok := l.miss[msg.Block]; ok {
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
	if l.mustStall(msg, line) {
		l.park(msg.Block, msg)
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
func (l *L2) MsgPending() bool {
	return !l.inQ.Empty() || !l.outNoC.Empty() || !l.outDRAM.Empty()
}

// ForEachLease implements coherence.LeaseHolder: each resident line's
// granted lease as (0, expiry) in physical time.
func (l *L2) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	l.array.ForEach(func(c *cache.Line[l2Meta]) { fn(c.Addr, 0, c.Meta.expiry) })
}

// NextTimeEvent implements coherence.TimeSensitive: the earliest future
// lease expiry, which unblocks parked TC-Strong writes and frees
// eviction victims for stalled fills.
func (l *L2) NextTimeEvent(now uint64) (uint64, bool) {
	var at uint64
	ok := false
	l.array.ForEach(func(c *cache.Line[l2Meta]) {
		if e := c.Meta.expiry; e > now && (!ok || e < at) {
			at, ok = e, true
		}
	})
	return at, ok
}

// Peek implements coherence.L2 (verification hook).
func (l *L2) Peek(b mem.BlockAddr) (*mem.Block, bool) {
	line := l.array.Lookup(b)
	if line == nil {
		return nil, false
	}
	return &line.Data, true
}
