package coherence

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// BankGeometry is the organization of one shared L2 bank. A bank
// services one request per cycle.
type BankGeometry struct {
	Sets int
	Ways int
}

// Miss is one outstanding DRAM read of a bank and the requests that
// arrived for the block while it was in flight, replayed in arrival
// order once the block installs. Fill holds the DRAM's response from
// its arrival until the install: for protocols whose fills can stall
// on a protected victim (TC's inclusion, the directory's recalls) it
// stays parked here, carrying its own payload, until a retry installs.
type Miss struct {
	Block   mem.BlockAddr
	Waiting []*mem.Msg
	Fill    *mem.Msg
}

// Bank is the protocol-independent half of a shared L2 bank,
// generic over the per-line protocol metadata M: the tag array, the
// input queue it services one request per cycle, the NoC and DRAM
// output queues with their backpressure, the message pool the bank's
// DRAM partition shares, the miss table with its free list and the
// sorted list of stalled fills, the clock, the observer and the
// first-failure latch.
//
// Every bank embeds one and keeps only its coherence decisions. Bank
// supplies the accessors of the L2 interface (Pool, Stats, SyncClock,
// Err, Peek), and base Pending, Quiescent, Wake, Drained and DumpState
// that a protocol with further transient state wraps.
type Bank[M any] struct {
	ID       int    // bank index
	Now      uint64 // local clock; see L2.SyncClock
	Obs      Observer
	Counters stats.L2Stats
	Array    *cache.Array[M]

	name     string // component name, e.g. "gtsc-l2"
	inQ      mem.MsgQueue
	sendNoC  Sender
	sendDRAM Sender
	outNoC   mem.MsgQueue
	outDRAM  mem.MsgQueue
	pool     *mem.Pool

	miss       mem.Table[mem.BlockAddr, *Miss]
	freeMisses mem.FreeList[Miss] // retired entries, waiting capacity kept
	// stalled lists, ascending, the blocks whose fill arrived but found
	// no victim; RetryStalled re-offers them every tick in this order
	// so victim selection is reproducible.
	stalled []mem.BlockAddr
	retry   []mem.BlockAddr // RetryStalled's snapshot of stalled
	fail    *diag.ProtocolError
	failed  *atomic.Bool // raised with fail; see SetFailFlag
}

// NewBank builds bank id, named name in diagnostics. sendNoC injects
// responses toward SMs; sendDRAM feeds the bank's memory partition.
// obs may be nil.
func NewBank[M any](name string, id int, geo BankGeometry, sendNoC, sendDRAM Sender, obs Observer) Bank[M] {
	return Bank[M]{
		ID: id, Obs: obs, Array: cache.NewArray[M](geo.Sets, geo.Ways),
		name: name, sendNoC: sendNoC, sendDRAM: sendDRAM,
		pool: &mem.Pool{},
	}
}

// Pool implements L2.
func (b *Bank[M]) Pool() *mem.Pool { return b.pool }

// Stats implements L2.
func (b *Bank[M]) Stats() *stats.L2Stats { return &b.Counters }

// SyncClock implements L2.
func (b *Bank[M]) SyncClock(now uint64) { b.Now = now }

// Failf records the first protocol violation; the bank then drops
// further input until the simulator surfaces the error.
func (b *Bank[M]) Failf(event, format string, args ...any) {
	if b.fail == nil {
		b.fail = diag.Errf(fmt.Sprintf("%s[%d]", b.name, b.ID), event, format, args...)
		if b.failed != nil {
			b.failed.Store(true)
		}
	}
}

// SetFailFlag makes the first protocol violation also raise flag (see
// Port.SetFailFlag).
func (b *Bank[M]) SetFailFlag(flag *atomic.Bool) { b.failed = flag }

// Err implements L2.
func (b *Bank[M]) Err() error {
	if b.fail == nil {
		return nil
	}
	return b.fail
}

// Peek implements L2 (verification hook).
func (b *Bank[M]) Peek(blk mem.BlockAddr) (*mem.Block, bool) {
	line := b.Array.Lookup(blk)
	if line == nil {
		return nil, false
	}
	return &line.Data, true
}

// Pending counts queued messages plus each outstanding miss and the
// requests waiting on it.
func (b *Bank[M]) Pending() int {
	n := b.inQ.Len() + b.outNoC.Len() + b.outDRAM.Len()
	b.miss.Each(func(_ mem.BlockAddr, m *Miss) { n += len(m.Waiting) + 1 })
	return n
}

// Busy reports message-driven work: queued input not yet serviced, or
// output not yet injected.
func (b *Bank[M]) Busy() bool { return !b.inQ.Empty() || b.Blocked() }

// Quiescent reports that Tick would be a no-op until input arrives:
// nothing queued and no stalled fill to retry. A plain outstanding
// miss does not count: it only changes state when its fill arrives.
func (b *Bank[M]) Quiescent() bool { return !b.Busy() && len(b.stalled) == 0 }

// Wake implements L2 for a bank with no timed work: Hot until it is
// Quiescent, then Never.
func (b *Bank[M]) Wake(uint64) uint64 {
	if b.Quiescent() {
		return sched.Never
	}
	return sched.Hot
}

// Drained is the O(1) form of Pending() == 0.
func (b *Bank[M]) Drained() bool { return !b.Busy() && b.miss.Len() == 0 }

// DumpState snapshots the bank's queues and misses for diagnostics.
func (b *Bank[M]) DumpState() diag.CacheState {
	return diag.CacheState{
		Name: b.name, ID: b.ID, Pending: b.Pending(),
		MSHRUsed: b.miss.Len(), Misses: b.miss.Len(),
		InQ: b.inQ.Len(), OutQ: b.outNoC.Len() + b.outDRAM.Len(),
	}
}

// DigestState implements L2.DigestState for the bank: clock, tag array,
// misses in block order (a stalled fill with its data), and the three
// queues in FIFO order. A bank with more state renders it after this.
func (b *Bank[M]) DigestState(w io.Writer) {
	fmt.Fprintf(w, "%s[%d] now=%d\n", b.name, b.ID, b.Now)
	b.Array.DigestInto(w)
	mem.DigestBlockMap(w, &b.miss, func(w io.Writer, blk mem.BlockAddr, m *Miss) {
		fmt.Fprintf(w, "miss %#x", uint64(blk))
		if m.Fill != nil {
			fmt.Fprintf(w, " d%x", m.Fill.Data.Words)
		}
		io.WriteString(w, "\n")
		mem.DigestMsgs(w, "wait", m.Waiting)
	})
	mem.DigestMsgs(w, "inq", b.inQ.Items())
	mem.DigestMsgs(w, "outnoc", b.outNoC.Items())
	mem.DigestMsgs(w, "outdram", b.outDRAM.Items())
}

// DebugString lists the bank's queues and misses in block order, for
// deadlock diagnosis.
func (b *Bank[M]) DebugString() string {
	var s strings.Builder
	fmt.Fprintf(&s, "inQ=%d outNoC=%d outDRAM=%d\n", b.inQ.Len(), b.outNoC.Len(), b.outDRAM.Len())
	mem.DigestBlockMap(&s, &b.miss, func(w io.Writer, blk mem.BlockAddr, m *Miss) {
		fmt.Fprintf(w, "  miss %v waiting=%d\n", blk, len(m.Waiting))
	})
	return s.String()
}

// Enqueue queues a request from the NoC for Service, unless the bank
// has failed.
func (b *Bank[M]) Enqueue(msg *mem.Msg) {
	if b.fail == nil {
		b.inQ.Push(msg)
	}
}

// Drain advances the clock to now and retries backpressured output.
func (b *Bank[M]) Drain(now uint64) {
	b.Now = now
	b.outNoC.Drain(b.sendNoC)
	b.outDRAM.Drain(b.sendDRAM)
}

// Blocked reports head-of-line blocking: output the transports refused
// is still queued, so the bank accepts no new request this cycle.
func (b *Bank[M]) Blocked() bool { return !b.outNoC.Empty() || !b.outDRAM.Empty() }

// Service hands the oldest queued request, if any, to serve: a bank
// services one request per cycle.
func (b *Bank[M]) Service(serve func(msg *mem.Msg)) {
	if !b.inQ.Empty() {
		serve(b.inQ.Pop())
	}
}

// Accept counts read, write or atomic request msg and its tag probe.
// Any other message latches unexpected-message and returns false.
func (b *Bank[M]) Accept(msg *mem.Msg) bool {
	switch msg.Type {
	case mem.BusRd:
		b.Counters.Reads++
	case mem.BusWr:
		b.Counters.Writes++
	case mem.BusAtom:
		b.Counters.Atomics++
	default:
		b.Failf("unexpected-message", "request %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
		return false
	}
	b.Counters.TagProbes++
	return true
}

// Reply draws a response of type t to request req: addressed back to
// the requester under the request's ID.
func (b *Bank[M]) Reply(t mem.MsgType, req *mem.Msg) *mem.Msg {
	m := b.pool.Msg()
	m.Type, m.Block, m.Src, m.Dst, m.ReqID = t, req.Block, b.ID, req.Src, req.ReqID
	return m
}

// Respond sends a message toward the SMs.
func (b *Bank[M]) Respond(msg *mem.Msg) { b.outNoC.Post(b.sendNoC, msg) }

// Free recycles a consumed message.
func (b *Bank[M]) Free(msg *mem.Msg) { b.pool.PutMsg(msg) }

// Fetch parks request msg behind its block's outstanding DRAM read,
// starting the read (a counted miss) when none is in flight. The
// caller has found the block absent.
func (b *Bank[M]) Fetch(msg *mem.Msg) {
	m, ok := b.miss.Get(msg.Block)
	if !ok {
		b.Counters.Misses++
		m = b.freeMisses.Get()
		m.Block = msg.Block
		b.miss.Put(msg.Block, m)
		rd := b.pool.Msg()
		rd.Type, rd.Block, rd.Src, rd.Dst = mem.DRAMRd, msg.Block, b.ID, b.ID
		b.outDRAM.Post(b.sendDRAM, rd)
	}
	m.Waiting = append(m.Waiting, msg)
}

// Landed parks DRAM fill msg in its miss entry and returns the entry.
// A fill nothing awaits latches orphan-dram-fill and returns nil, as
// does a failed bank.
func (b *Bank[M]) Landed(msg *mem.Msg) *Miss {
	if b.fail != nil {
		return nil
	}
	m, ok := b.miss.Get(msg.Block)
	if !ok {
		b.Failf("orphan-dram-fill", "DRAM fill for %v without outstanding miss", msg.Block)
		return nil
	}
	m.Fill = msg
	return m
}

// Stall records that m's fill found no victim; RetryStalled re-offers
// it every tick until an install succeeds.
func (b *Bank[M]) Stall(m *Miss) {
	if i, found := slices.BinarySearch(b.stalled, m.Block); !found {
		b.stalled = slices.Insert(b.stalled, i, m.Block)
	}
}

// RetryStalled offers every stalled fill, in block order, to install.
func (b *Bank[M]) RetryStalled(install func(m *Miss)) {
	if len(b.stalled) == 0 {
		return
	}
	b.retry = append(b.retry[:0], b.stalled...)
	for _, blk := range b.retry {
		if m, ok := b.miss.Get(blk); ok && m.Fill != nil {
			install(m)
		}
	}
}

// Install places m's fill in victim (already evicted), retiring the
// miss from the table; the caller replays m.Waiting and then Retires m.
func (b *Bank[M]) Install(m *Miss, victim *cache.Line[M]) {
	b.Array.Install(victim, m.Block, m.Fill.Data, b.Now)
	b.Counters.DataAccesses++
	b.miss.Delete(m.Block)
	if i, found := slices.BinarySearch(b.stalled, m.Block); found {
		b.stalled = slices.Delete(b.stalled, i, i+1)
	}
}

// Retire frees an installed miss's fill and recycles the entry, whose
// waiting requests have all been replayed or handed on.
func (b *Bank[M]) Retire(m *Miss) {
	b.pool.PutMsg(m.Fill)
	clear(m.Waiting)
	*m = Miss{Waiting: m.Waiting[:0]}
	b.freeMisses.Put(m)
}

// Evict removes a victim line, writing dirty data back to DRAM.
func (b *Bank[M]) Evict(victim *cache.Line[M]) {
	b.Counters.Evictions++
	if victim.Dirty {
		b.Counters.WritebackDRAM++
		wr := b.pool.Msg()
		wr.Type, wr.Block, wr.Src, wr.Dst, wr.Mask = mem.DRAMWr, victim.Addr, b.ID, b.ID, mem.MaskAll
		wr.SetData(&victim.Data)
		b.outDRAM.Post(b.sendDRAM, wr)
	}
	b.Array.Invalidate(victim)
}

// Atomic performs read-modify-write msg on line and returns its unsent
// acknowledgment carrying the pre-update values. The observer sees the
// read half and then the write half, both at timestamp ts.
func (b *Bank[M]) Atomic(msg *mem.Msg, line *cache.Line[M], ts uint64) *mem.Msg {
	ack := b.Reply(mem.BusAtomAck, msg)
	ack.Mask, ack.Warp = msg.Mask, msg.Warp
	old := ack.Payload()
	mem.Merge(old, &line.Data, msg.Mask)
	for i := 0; i < mem.WordsPerBlock; i++ {
		if msg.Mask.Has(i) {
			line.Data.Words[i] = msg.Atom.Apply(line.Data.Words[i], msg.Data.Words[i])
		}
	}
	line.Dirty = true
	b.Array.Touch(line, b.Now)
	b.Counters.DataAccesses++
	if b.Obs != nil {
		b.Obs.Observe(Op{
			SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
			Mask: msg.Mask, Data: *old, TS: ts, Cycle: b.Now,
		})
		var stored mem.Block
		mem.Merge(&stored, &line.Data, msg.Mask)
		b.Obs.Observe(Op{
			SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
			Mask: msg.Mask, Data: stored, TS: ts, Cycle: b.Now,
		})
	}
	return ack
}

// ObserveStore reports write msg, performed here at timestamp ts, to
// the observer.
func (b *Bank[M]) ObserveStore(msg *mem.Msg, ts uint64) {
	if b.Obs == nil {
		return
	}
	var stored mem.Block
	mem.Merge(&stored, msg.Data, msg.Mask)
	b.Obs.Observe(Op{
		SM: msg.Src, Warp: msg.Warp, Store: true, Block: msg.Block,
		Mask: msg.Mask, Data: stored, TS: ts, Cycle: b.Now,
	})
}
