package coherence

import (
	"fmt"
	"io"
	"sync/atomic"

	"github.com/gtsc-sim/gtsc/internal/cache"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// L1Geometry is the organization of a private L1 cache, shared by every
// protocol so capacity is identical across them.
type L1Geometry struct {
	Sets  int
	Ways  int
	MSHRs int
	Warps int // warps per SM, sizing G-TSC's warp_ts table
}

// Port is the protocol-independent half of an L1 controller: the SM's
// identity and bank interleaving, the request-ID counter, the
// backpressured output queue, the message pool, the MSHR, the table of
// stores and atomics awaiting acks, the count of accesses still owed a
// callback, the load-completion scratch block, the local clock, the
// observer and the first-failure latch.
//
// Every L1 embeds one and keeps only its coherence decisions. Port
// supplies the accessors of the L1 interface (Stats, Pending,
// Quiescent, SyncClock, Err, DumpState, Deliveries) and the output
// drain (Tick): a port's Tick only retries backpressured sends, so an
// empty output queue makes it quiescent.
type Port struct {
	ID       int    // SM index
	Now      uint64 // local clock; see L1.SyncClock
	Obs      Observer
	Counters stats.L1Stats
	// MSHR parks loads behind their block's outstanding read (nil for
	// a controller without one).
	MSHR *cache.MSHR[*Request]

	name    string // component name, e.g. "gtsc-l1"
	nBanks  int
	send    Sender
	outQ    mem.MsgQueue
	pool    mem.Pool // recycles the requests it sends and responses it consumes
	nextID  uint64
	arrived uint64                      // messages handed to Deliver; see Receive
	pending int                         // accesses accepted whose Done has not fired
	acks    mem.Table[uint64, *Request] // accesses awaiting an ack, by request ID
	loadOut mem.Block                   // masked-word scratch handed to load completions
	fail    *diag.ProtocolError
	failed  *atomic.Bool // raised with fail; see SetFailFlag
}

// NewPort builds the port of SM sm's L1, named name in diagnostics,
// interleaving blocks over nBanks banks, with an MSHR of mshrs entries
// (none when zero).
func NewPort(name string, sm, nBanks, mshrs int, send Sender, obs Observer) Port {
	p := Port{ID: sm, Obs: obs, name: name, nBanks: nBanks, send: send}
	if mshrs > 0 {
		p.MSHR = cache.NewMSHR[*Request](mshrs)
	}
	return p
}

// Stats implements L1.
func (p *Port) Stats() *stats.L1Stats { return &p.Counters }

// Pending implements L1.
func (p *Port) Pending() int { return p.pending }

// Quiescent implements L1.
func (p *Port) Quiescent() bool { return p.outQ.Empty() }

// SyncClock implements L1.
func (p *Port) SyncClock(now uint64) { p.Now = now }

// Deliveries implements L1.
func (p *Port) Deliveries() uint64 { return p.arrived }

// Receive counts a message handed to the controller's Deliver and
// reports whether the controller may process it: a failed controller
// drops further input. Every L1's Deliver starts with it.
func (p *Port) Receive() bool {
	p.arrived++
	return p.fail == nil
}

// Tick implements L1: retry backpressured sends in order.
func (p *Port) Tick(now uint64) {
	p.Now = now
	p.outQ.Drain(p.send)
}

// Failf records the first protocol violation; the controller then
// drops further input until the simulator surfaces the error.
func (p *Port) Failf(event, format string, args ...any) {
	if p.fail == nil {
		p.fail = diag.Errf(fmt.Sprintf("%s[%d]", p.name, p.ID), event, format, args...)
		if p.failed != nil {
			p.failed.Store(true)
		}
	}
}

// SetFailFlag makes the first protocol violation also raise flag, so
// the owner of many controllers can poll one flag instead of every
// controller's Err. The flag is atomic because an SM-domain L1 can
// latch on a relaxed-engine worker goroutine.
func (p *Port) SetFailFlag(flag *atomic.Bool) { p.failed = flag }

// Err implements L1.
func (p *Port) Err() error {
	if p.fail == nil {
		return nil
	}
	return p.fail
}

// DumpState implements L1.
func (p *Port) DumpState() diag.CacheState {
	st := diag.CacheState{Name: p.name, ID: p.ID, Pending: p.pending, OutQ: p.outQ.Len()}
	if p.MSHR != nil {
		st.MSHRUsed, st.MSHRCap = p.MSHR.Len(), p.MSHR.Cap()
	}
	return st
}

// DigestState implements L1.DigestState for the port: the clock, the
// request-ID counter, the owed callbacks, the MSHR, the queued output,
// and the IDs of the accesses awaiting acks (their requests carry
// callbacks; the messages carrying their content are digested wherever
// they sit). An L1 with more state renders it after this.
func (p *Port) DigestState(w io.Writer) {
	fmt.Fprintf(w, "%s[%d] now=%d next=%d pend=%d\n", p.name, p.ID, p.Now, p.nextID, p.pending)
	if p.MSHR != nil {
		p.MSHR.DigestInto(w)
	}
	mem.DigestMsgs(w, "outq", p.outQ.Items())
	mem.DigestIDTable(w, "ack", &p.acks)
}

// Msg draws a message of type t about block b, addressed from this SM
// to the block's home bank (block-address interleaving).
func (p *Port) Msg(t mem.MsgType, b mem.BlockAddr) *mem.Msg {
	m := p.pool.Msg()
	m.Type, m.Block, m.Src, m.Dst = t, b, p.ID, int(uint64(b)%uint64(p.nBanks))
	return m
}

// Request is Msg under the next request ID, which the response echoes.
func (p *Port) Request(t mem.MsgType, b mem.BlockAddr) *mem.Msg {
	p.nextID++
	m := p.Msg(t, b)
	m.ReqID = p.nextID
	return m
}

// Forward draws the request of type t carrying access acc to its home
// bank: its mask, warp, atomic operation and masked operand words
// (none for a load).
func (p *Port) Forward(t mem.MsgType, acc *Request) *mem.Msg {
	m := p.Request(t, acc.Block)
	m.Mask, m.Warp, m.Atom = acc.Mask, acc.Warp, acc.Atom
	if acc.Data != nil {
		mem.Merge(m.Payload(), acc.Data, acc.Mask)
	}
	return m
}

// Issue forwards access acc under type t, files it to await its ack,
// and posts the request.
func (p *Port) Issue(t mem.MsgType, acc *Request) {
	m := p.Forward(t, acc)
	p.Await(m, acc)
	p.Post(m)
}

// Post sends msg, queueing it behind the backlog when the port is full.
func (p *Port) Post(msg *mem.Msg) { p.outQ.Post(p.send, msg) }

// Free recycles a consumed message.
func (p *Port) Free(msg *mem.Msg) { p.pool.PutMsg(msg) }

// Owe counts an accepted access whose Done fires later (Complete or
// CompleteLoad settles it).
func (p *Port) Owe() { p.pending++ }

// Await files acc under msg's request ID until its ack arrives (Take),
// and counts it owed.
func (p *Port) Await(msg *mem.Msg, acc *Request) {
	p.acks.Put(msg.ReqID, acc)
	p.pending++
}

// Take claims the access awaiting ack msg. An ack nothing awaits
// latches the protocol error event and returns nil.
func (p *Port) Take(msg *mem.Msg, event string) *Request {
	acc, ok := p.acks.Delete(msg.ReqID)
	if !ok {
		p.Failf(event, "%v req=%d block=%v from bank %d has no pending access", msg.Type, msg.ReqID, msg.Block, msg.Src)
		return nil
	}
	return acc
}

// Ack settles the access awaiting ack msg with completion c; see Take.
func (p *Port) Ack(msg *mem.Msg, event string, c Completion) {
	if acc := p.Take(msg, event); acc != nil {
		p.Complete(acc, c)
	}
}

// Complete settles an owed access with its completion.
func (p *Port) Complete(acc *Request, c Completion) {
	p.pending--
	acc.Done(c)
}

// CompleteLoad settles an owed load with the masked words of data in
// the port's scratch block, reused by the next completion (see
// Completion), at timestamp ts. The observer sees the load at opTS, the
// protocol's monotonic form of ts.
func (p *Port) CompleteLoad(req *Request, data *mem.Block, ts, opTS uint64) {
	out := &p.loadOut
	*out = mem.Block{}
	mem.Merge(out, data, req.Mask)
	if p.Obs != nil {
		p.Obs.Observe(Op{
			SM: p.ID, Warp: req.Warp, Block: req.Block, Mask: req.Mask,
			Data: *out, TS: opTS, Cycle: p.Now,
		})
	}
	p.Complete(req, Completion{Data: out, TS: ts})
}

// CountLoad counts a load presentation with outcome r once the L1 has
// accepted it, as a hit or parked: the load and its tag probe. A
// rejected presentation counts only its MSHR stall (Park).
func (p *Port) CountLoad(r AccessResult) AccessResult {
	if r != Reject {
		p.Counters.Loads++
		p.Counters.TagProbes++
	}
	return r
}

// Park files load req in the MSHR behind its block's outstanding read,
// allocating an entry (fresh) when there is none, and counts it owed.
// It returns nil when the table is full: the caller rejects the access.
func (p *Port) Park(req *Request) (e *cache.MSHREntry[*Request], fresh bool) {
	if e = p.MSHR.Lookup(req.Block); e != nil {
		p.Counters.MSHRMerges++
	} else if p.MSHR.Full() {
		p.Counters.MSHRStalls++
		return nil, false
	} else if e, fresh = p.MSHR.Allocate(req.Block), true; e == nil {
		p.Failf("mshr-allocate", "allocate for %v failed despite capacity check", req.Block)
		return nil, false
	}
	e.Waiters = append(e.Waiters, req)
	p.pending++
	return e, fresh
}

// FlushReady reports whether a kernel-boundary flush may proceed, and
// counts it. A flush with accesses still owed is a simulator bug: it
// latches flush-outstanding instead.
func (p *Port) FlushReady() bool {
	if p.pending != 0 {
		p.Failf("flush-outstanding", "flush with %d outstanding accesses", p.pending)
		return false
	}
	p.Counters.Flushes++
	return true
}
