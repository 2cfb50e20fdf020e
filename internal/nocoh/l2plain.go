package nocoh

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// L2Plain is a shared cache bank with no coherence metadata: reads
// return data, writes merge and acknowledge, misses fetch from DRAM.
// Both non-coherent configurations (BL and Baseline-w/L1) run over it.
// It implements coherence.L2.
type L2Plain struct {
	bankID int
	now    uint64

	array      *cache.Array[struct{}]
	miss       map[mem.BlockAddr]*plainMiss
	freeMisses mem.FreeList[plainMiss] // retired entries, waiting capacity kept

	inQ      mem.MsgQueue
	perCycle int

	sendNoC  coherence.Sender
	sendDRAM coherence.Sender
	outNoC   mem.MsgQueue
	outDRAM  mem.MsgQueue
	// pool recycles the bank's responses plus the requests it consumes;
	// the bank's DRAM partition shares it.
	pool *mem.Pool

	stats stats.L2Stats
	obs   coherence.Observer
	// observeLoads makes the bank report loads to the observer at
	// processing time — set for the BL configuration, where there is
	// no L1 and load values bind here.
	observeLoads bool
	fail         *diag.ProtocolError
}

type plainMiss struct {
	block   mem.BlockAddr
	waiting []*mem.Msg
}

// L2Geometry describes one bank's organization.
type L2Geometry struct {
	Sets     int
	Ways     int
	PerCycle int
}

// NewL2Plain builds bank bankID.
func NewL2Plain(bankID int, geo L2Geometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2Plain {
	if geo.PerCycle == 0 {
		geo.PerCycle = 1
	}
	return &L2Plain{
		bankID:   bankID,
		array:    cache.NewArray[struct{}](geo.Sets, geo.Ways),
		miss:     make(map[mem.BlockAddr]*plainMiss),
		perCycle: geo.PerCycle,
		sendNoC:  sendNoC,
		sendDRAM: sendDRAM,
		obs:      obs,
		pool:     &mem.Pool{},
	}
}

// Pool implements coherence.L2.
func (l *L2Plain) Pool() *mem.Pool { return l.pool }

// Stats implements coherence.L2.
func (l *L2Plain) Stats() *stats.L2Stats { return &l.stats }

// Pending implements coherence.L2.
func (l *L2Plain) Pending() int {
	n := l.inQ.Len() + l.outNoC.Len() + l.outDRAM.Len()
	for _, m := range l.miss {
		n += len(m.waiting) + 1
	}
	return n
}

// Quiescent implements coherence.L2. Outstanding misses do not block
// quiescence: fills install unconditionally, so a miss entry only
// changes state when its DRAM fill arrives (a scheduled event).
func (l *L2Plain) Quiescent() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty()
}

// Drained implements coherence.L2: O(1) Pending() == 0.
func (l *L2Plain) Drained() bool {
	return l.inQ.Empty() && l.outNoC.Empty() && l.outDRAM.Empty() && len(l.miss) == 0
}

// failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (l *L2Plain) failf(event, format string, args ...any) {
	if l.fail == nil {
		l.fail = diag.Errf(fmt.Sprintf("plain-l2[%d]", l.bankID), event, format, args...)
	}
}

// Err implements coherence.L2.
func (l *L2Plain) Err() error {
	if l.fail == nil {
		return nil
	}
	return l.fail
}

// DumpState implements coherence.L2.
func (l *L2Plain) DumpState() diag.CacheState {
	return diag.CacheState{
		Name: "plain-l2", ID: l.bankID, Pending: l.Pending(),
		MSHRUsed: len(l.miss), InQ: l.inQ.Len(),
		OutQ: l.outNoC.Len() + l.outDRAM.Len(), Misses: len(l.miss),
	}
}

// Deliver implements coherence.L2.
func (l *L2Plain) Deliver(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	l.inQ.Push(msg)
}

// DRAMFill implements coherence.L2.
func (l *L2Plain) DRAMFill(msg *mem.Msg) {
	if l.fail != nil {
		return
	}
	m, ok := l.miss[msg.Block]
	if !ok {
		l.failf("orphan-dram-fill", "DRAM fill for %v without outstanding miss", msg.Block)
		return
	}
	delete(l.miss, msg.Block)
	victim := l.array.Victim(msg.Block, nil)
	if victim.Valid {
		l.evict(victim)
	}
	l.array.Install(victim, msg.Block, msg.Data, l.now)
	l.stats.DataAccesses++
	l.pool.PutMsg(msg)
	for _, w := range m.waiting {
		l.process(w, victim)
	}
	clear(m.waiting)
	*m = plainMiss{waiting: m.waiting[:0]}
	l.freeMisses.Put(m)
}

func (l *L2Plain) evict(victim *cache.Line[struct{}]) {
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

// process serves one request against a present line and frees it: the
// request is fully consumed once its response is posted.
func (l *L2Plain) process(msg *mem.Msg, line *cache.Line[struct{}]) {
	defer l.pool.PutMsg(msg)
	switch msg.Type {
	case mem.BusRd:
		l.array.Touch(line, l.now)
		l.stats.FillsSent++
		l.stats.DataAccesses++
		if l.observeLoads && l.obs != nil {
			var loaded mem.Block
			mem.Merge(&loaded, &line.Data, msg.Mask)
			l.obs.Observe(coherence.Op{
				SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
				Mask: msg.Mask, Data: loaded, Cycle: l.now,
			})
		}
		fill := l.pool.Msg()
		*fill = mem.Msg{
			Type: mem.BusFill, Block: msg.Block, Src: l.bankID, Dst: msg.Src,
			ReqID: msg.ReqID,
		}
		fill.SetData(&line.Data)
		l.outNoC.Post(l.sendNoC, fill)
	case mem.BusWr:
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
		l.outNoC.Post(l.sendNoC, ack)
	case mem.BusAtom:
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
	default:
		l.failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}

// SyncClock implements coherence.L2.
func (l *L2Plain) SyncClock(now uint64) { l.now = now }

// Tick implements coherence.L2.
func (l *L2Plain) Tick(now uint64) {
	l.now = now
	l.outNoC.Drain(l.sendNoC)
	l.outDRAM.Drain(l.sendDRAM)
	if !l.outNoC.Empty() || !l.outDRAM.Empty() {
		return
	}
	for i := 0; i < l.perCycle && !l.inQ.Empty(); i++ {
		l.service(l.inQ.Pop())
	}
}

func (l *L2Plain) service(msg *mem.Msg) {
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
	l.process(msg, line)
}

// SetObserveLoads makes the bank observe loads at processing time
// (BL configuration).
func (l *L2Plain) SetObserveLoads(v bool) { l.observeLoads = v }

// Peek implements coherence.L2 (verification hook).
func (l *L2Plain) Peek(b mem.BlockAddr) (*mem.Block, bool) {
	line := l.array.Lookup(b)
	if line == nil {
		return nil, false
	}
	return &line.Data, true
}
