package nocoh

import (
	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// L2Plain is a shared cache bank with no coherence metadata: reads
// return data, writes merge and acknowledge, misses fetch from DRAM.
// Both non-coherent configurations (BL and Baseline-w/L1) run over it.
// It implements coherence.L2.
type L2Plain struct {
	coherence.Bank[struct{}]
	// observeLoads makes the bank report loads to the observer at
	// processing time — set for the BL configuration, where there is
	// no L1 and load values bind here.
	observeLoads bool
}

// NewL2Plain builds bank bankID.
func NewL2Plain(bankID int, geo coherence.BankGeometry, sendNoC, sendDRAM coherence.Sender, obs coherence.Observer) *L2Plain {
	return &L2Plain{Bank: coherence.NewBank[struct{}]("plain-l2", bankID, geo, sendNoC, sendDRAM, obs)}
}

// SetObserveLoads makes the bank observe loads at processing time
// (BL configuration).
func (l *L2Plain) SetObserveLoads(v bool) { l.observeLoads = v }

// Deliver implements coherence.L2.
func (l *L2Plain) Deliver(msg *mem.Msg) { l.Enqueue(msg) }

// DRAMFill implements coherence.L2: fills install unconditionally and
// replay the requests that waited on them.
func (l *L2Plain) DRAMFill(msg *mem.Msg) {
	m := l.Landed(msg)
	if m == nil {
		return
	}
	victim := l.Array.Victim(msg.Block, nil)
	if victim.Valid {
		l.Evict(victim)
	}
	l.Install(m, victim)
	for _, w := range m.Waiting {
		l.process(w, victim)
	}
	l.Retire(m)
}

// Tick implements coherence.L2.
func (l *L2Plain) Tick(now uint64) {
	l.Drain(now)
	if !l.Blocked() {
		l.Service(l.service)
	}
}

func (l *L2Plain) service(msg *mem.Msg) {
	if !l.Accept(msg) {
		return
	}
	line := l.Array.Lookup(msg.Block)
	if line == nil {
		l.Fetch(msg)
		return
	}
	l.Counters.Hits++
	l.process(msg, line)
}

// process serves one request against a present line and frees it: the
// request is fully consumed once its response is posted.
func (l *L2Plain) process(msg *mem.Msg, line *cache.Line[struct{}]) {
	defer l.Free(msg)
	switch msg.Type {
	case mem.BusRd:
		l.Array.Touch(line, l.Now)
		l.Counters.FillsSent++
		l.Counters.DataAccesses++
		if l.observeLoads && l.Obs != nil {
			var loaded mem.Block
			mem.Merge(&loaded, &line.Data, msg.Mask)
			l.Obs.Observe(coherence.Op{
				SM: msg.Src, Warp: msg.Warp, Block: msg.Block,
				Mask: msg.Mask, Data: loaded, Cycle: l.Now,
			})
		}
		fill := l.Reply(mem.BusFill, msg)
		fill.SetData(&line.Data)
		l.Respond(fill)
	case mem.BusWr:
		mem.Merge(&line.Data, msg.Data, msg.Mask)
		line.Dirty = true
		l.Array.Touch(line, l.Now)
		l.Counters.DataAccesses++
		l.ObserveStore(msg, 0)
		ack := l.Reply(mem.BusWrAck, msg)
		ack.Warp = msg.Warp
		l.Respond(ack)
	case mem.BusAtom:
		l.Respond(l.Atomic(msg, line, 0))
	default:
		l.Failf("unexpected-message", "message %v for block %v from SM %d", msg.Type, msg.Block, msg.Src)
	}
}
