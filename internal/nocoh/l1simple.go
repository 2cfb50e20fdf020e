package nocoh

import (
	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// L1Simple is the Baseline-w/L1 configuration: a conventional
// write-through, write-no-allocate L1 with MSHR merging and no
// coherence whatsoever — cached lines remain valid until evicted. It
// is only safe for kernels that do not communicate through global
// memory (the paper's second benchmark set). It implements
// coherence.L1.
type L1Simple struct {
	coherence.Port
	array *cache.Array[struct{}]
}

// NewL1Simple builds the non-coherent L1 for SM smID.
func NewL1Simple(smID, nBanks int, geo coherence.L1Geometry, send coherence.Sender, obs coherence.Observer) *L1Simple {
	return &L1Simple{
		Port:  coherence.NewPort("nocoh-l1", smID, nBanks, geo.MSHRs, send, obs),
		array: cache.NewArray[struct{}](geo.Sets, geo.Ways),
	}
}

// Access implements coherence.L1.
func (l *L1Simple) Access(req *coherence.Request) coherence.AccessResult {
	line := l.array.Lookup(req.Block)
	switch {
	case req.Atomic:
		// Apply the update to the local copy too, keeping the SM
		// internally consistent — remote updates remain invisible, as
		// everywhere in this non-coherent configuration.
		l.Counters.Atomics++
		if line != nil {
			for i := 0; i < mem.WordsPerBlock; i++ {
				if req.Mask.Has(i) {
					line.Data.Words[i] = req.Atom.Apply(line.Data.Words[i], req.Data.Words[i])
				}
			}
			l.Counters.DataAccesses++
		}
		l.Issue(mem.BusAtom, req)
	case req.Store:
		// Write-through with local update and no locking: without
		// coherence there is no remote writer to race with.
		l.Counters.Stores++
		if line != nil {
			mem.Merge(&line.Data, req.Data, req.Mask)
			l.Counters.DataAccesses++
			l.array.Touch(line, l.Now)
		}
		l.Issue(mem.BusWr, req)
	default:
		return l.CountLoad(l.accessLoad(req, line))
	}
	l.Counters.TagProbes++ // a load counts its probe once accepted
	return coherence.Pending
}

func (l *L1Simple) accessLoad(req *coherence.Request, line *cache.Line[struct{}]) coherence.AccessResult {
	if line != nil {
		l.Counters.Hits++
		l.Counters.DataAccesses++
		l.array.Touch(line, l.Now)
		l.Owe()
		l.CompleteLoad(req, &line.Data, 0, 0)
		return coherence.Hit
	}
	e, fresh := l.Park(req)
	if e == nil {
		return coherence.Reject
	}
	l.Counters.MissCold++
	if fresh {
		e.Issued = true
		l.Post(l.Request(mem.BusRd, req.Block))
	}
	return coherence.Pending
}

// Deliver implements coherence.L1. Every response is consumed before
// the handler returns, so the message recycles here.
func (l *L1Simple) Deliver(msg *mem.Msg) {
	if !l.Receive() {
		return
	}
	switch msg.Type {
	case mem.BusFill:
		l.onFill(msg)
	case mem.BusWrAck:
		l.Counters.WriteAcks++
		l.Ack(msg, "unknown-write-ack", coherence.Completion{})
	case mem.BusAtomAck:
		l.Ack(msg, "unknown-atomic-ack", coherence.Completion{Data: msg.Data})
	default:
		l.Failf("unexpected-message", "message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
	}
	l.Free(msg)
}

func (l *L1Simple) onFill(msg *mem.Msg) {
	l.Counters.Fills++
	line := l.array.Lookup(msg.Block)
	if line == nil {
		line = l.array.Victim(msg.Block, nil)
		l.array.Install(line, msg.Block, msg.Data, l.Now)
	} else {
		line.Data = *msg.Data
	}
	l.Counters.DataAccesses++
	e := l.MSHR.Lookup(msg.Block)
	if e == nil {
		return
	}
	for _, w := range e.Waiters {
		l.Counters.DataAccesses++
		l.CompleteLoad(w, &line.Data, 0, 0)
	}
	l.MSHR.Release(msg.Block)
}

// Flush implements coherence.L1.
func (l *L1Simple) Flush() {
	if l.FlushReady() {
		l.array.ForEach(func(c *cache.Line[struct{}]) { l.array.Invalidate(c) })
	}
}
