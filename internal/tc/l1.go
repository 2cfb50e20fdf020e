package tc

import (
	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// L1 is the TC private cache controller of one SM: write-through,
// write-no-allocate, with time-based self-invalidation instead of
// invalidation traffic. It implements coherence.L1.
//
// The local clock is load-bearing outside Tick: accessLoad compares it
// against lease expiries on every SM access, and the fill path detects
// leases that died in flight, so while the per-component dispatcher
// skips its ticks, SyncClock must bring it current before each access
// and each delivery (see coherence.L1.SyncClock).
type L1 struct {
	coherence.Port
	cfg   Config
	array *cache.Array[lease]
}

// NewL1 builds the TC controller for SM smID.
func NewL1(cfg Config, smID, nBanks int, geo coherence.L1Geometry, send coherence.Sender, obs coherence.Observer) *L1 {
	cfg.fillDefaults()
	return &L1{
		Port:  coherence.NewPort("tc-l1", smID, nBanks, geo.MSHRs, send, obs),
		cfg:   cfg,
		array: cache.NewArray[lease](geo.Sets, geo.Ways),
	}
}

// Access implements coherence.L1.
func (l *L1) Access(req *coherence.Request) coherence.AccessResult {
	switch {
	case req.Atomic:
		// A read-modify-write performs at the L2: under TC-Strong it
		// waits out every lease like a write; under TC-Weak it performs
		// immediately and the acknowledgment carries a GWCT.
		l.Counters.Atomics++
		l.Issue(mem.BusAtom, req)
	case req.Store:
		// The write goes through to L2 without updating the local copy:
		// under TC-Strong it completes only after every lease (this
		// SM's included) has expired, and under TC-Weak stale local
		// reads are permitted until the next fence, so the cached copy
		// simply ages out.
		l.Counters.Stores++
		l.Counters.TagProbes++
		l.Issue(mem.BusWr, req)
	default:
		return l.CountLoad(l.accessLoad(req))
	}
	return coherence.Pending
}

func (l *L1) accessLoad(req *coherence.Request) coherence.AccessResult {
	line := l.array.Lookup(req.Block)
	if line != nil && l.Now < line.Meta.expiry {
		l.Counters.Hits++
		l.Counters.DataAccesses++
		l.array.Touch(line, l.Now)
		l.Owe()
		l.CompleteLoad(req, &line.Data, 0, 0)
		return coherence.Hit
	}
	// Cold miss, or coherence miss: the block self-invalidated when
	// its lease expired (a tag match with an expired lease, §II-D).
	e, fresh := l.Park(req)
	if e == nil {
		return coherence.Reject
	}
	if line != nil {
		l.Counters.MissExpired++
		l.Counters.SelfInval++
		l.array.Invalidate(line)
	} else {
		l.Counters.MissCold++
	}
	if fresh {
		e.Issued = true
		l.Post(l.Request(mem.BusRd, req.Block))
	}
	return coherence.Pending
}

// Deliver implements coherence.L1. Every response is consumed before
// the handler returns (fills install their payload, acks complete
// their Done callbacks), so the message recycles here.
func (l *L1) Deliver(msg *mem.Msg) {
	if !l.Receive() {
		return
	}
	switch msg.Type {
	case mem.BusFill:
		l.onFill(msg)
	case mem.BusWrAck:
		// GWCT rides back to the LDST unit; fences stall on it (TC-Weak).
		l.Counters.WriteAcks++
		l.Ack(msg, "unknown-write-ack", coherence.Completion{GWCT: msg.GWCT})
	case mem.BusAtomAck:
		l.Ack(msg, "unknown-atomic-ack", coherence.Completion{Data: msg.Data, GWCT: msg.GWCT})
	default:
		l.Failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	l.Free(msg)
}

func (l *L1) onFill(msg *mem.Msg) {
	l.Counters.Fills++
	e := l.MSHR.Lookup(msg.Block)
	if msg.RTS <= l.Now {
		// The granted lease already expired in flight (possible with
		// very short leases): retry rather than caching dead data.
		if e != nil && len(e.Waiters) > 0 {
			l.Post(l.Request(mem.BusRd, msg.Block))
		}
		return
	}
	line := l.array.Lookup(msg.Block)
	if line == nil {
		// Expired lines are ordinary victims (self-invalidated).
		line = l.array.Victim(msg.Block, nil)
		if line.Valid {
			l.Counters.SelfInval++
		}
		l.array.Install(line, msg.Block, msg.Data, l.Now)
	} else {
		line.Data = *msg.Data
		l.array.Touch(line, l.Now)
	}
	line.Meta.expiry = msg.RTS
	l.Counters.TSUpdates++
	l.Counters.DataAccesses++
	if e == nil {
		return
	}
	// Physical leases cover every waiter at once: complete them all.
	for _, w := range e.Waiters {
		l.Counters.DataAccesses++
		l.CompleteLoad(w, &line.Data, 0, 0)
	}
	l.MSHR.Release(msg.Block)
}

// Flush implements coherence.L1 (kernel boundary).
func (l *L1) Flush() {
	if l.FlushReady() {
		l.array.ForEach(func(c *cache.Line[lease]) { l.array.Invalidate(c) })
	}
}

// ForEachLease implements coherence.LeaseHolder. TC leases are
// physical-time intervals; they are reported as (0, expiry) so checkers
// can compare containment against the bank's granted expiries.
func (l *L1) ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64)) {
	forEachLease(l.array, fn)
}

// NextTimeEvent implements coherence.TimeSensitive: the earliest future
// lease expiry, after which a currently-hitting load would miss.
func (l *L1) NextTimeEvent(now uint64) (uint64, bool) { return nextExpiry(l.array, now) }
