// Package dram models one GDDR memory partition per L2 bank: a request
// queue, a fixed access latency and a minimum issue interval that
// bounds bandwidth. It also owns the functional backing store so that
// data returned by fills is architecturally correct — the workloads'
// results are verified against sequential references, which requires
// the memory system to actually move real values.
package dram

import (
	"fmt"
	"sync/atomic"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// Config sets the partition timing parameters.
type Config struct {
	// Latency is the cycles from issue to fill delivery in the flat
	// model (default 200).
	Latency uint64
	// IssueInterval is the minimum cycles between issues on one
	// partition, bounding bandwidth (default 4: one 128B block per 4
	// cycles per partition).
	IssueInterval uint64
	// QueueCap bounds the request queue (default 64).
	QueueCap int

	// Banked switches to the per-bank row-buffer model: requests
	// hitting a bank's open row pay RowHitLatency, others pay
	// RowMissLatency; banks serve independently, oldest-first.
	Banked bool
	// Banks per partition (default 8).
	Banks int
	// RowBlocks is the row size in 128-byte blocks (default 16 = 2KB).
	RowBlocks int
	// RowHitLatency (default 120) and RowMissLatency (default 280).
	RowHitLatency  uint64
	RowMissLatency uint64
}

// DefaultConfig returns paper-scale partition parameters (flat model).
func DefaultConfig() Config { return Config{Latency: 200, IssueInterval: 4, QueueCap: 64} }

// DefaultBankedConfig returns the banked row-buffer parameters.
func DefaultBankedConfig() Config {
	cfg := DefaultConfig()
	cfg.Banked = true
	return cfg
}

// Partition is one memory channel. Reads copy the block from the
// backing store at issue time; writes merge into it immediately on
// issue (write completion is not acknowledged — L2 write-backs are
// fire-and-forget, as in GPGPU-Sim's simple DRAM mode).
type Partition struct {
	cfg       Config
	id        int
	store     *mem.Store
	queue     []*mem.Msg
	fills     fillHeap
	seqCtr    uint64
	nextIssue uint64
	stats     stats.DRAMStats
	banked    bankedState
	fail      *diag.ProtocolError
	failed    *atomic.Bool // raised with fail; see SetFailFlag
	pool      *mem.Pool

	// Deliver hands a completed DRAMFill back to the owning L2 bank.
	Deliver func(msg *mem.Msg)
}

// SetPool shares a message pool with the partition, normally the
// owning L2 bank's, so the DRAM read->fill->recycle loop is closed. The
// partition frees every request it consumes into its pool and draws its
// fills from it; until SetPool it uses a pool of its own.
func (p *Partition) SetPool(pool *mem.Pool) { p.pool = pool }

// New builds a partition backed by store. The store is shared among
// partitions (it is the single global memory image); address
// interleaving is the caller's concern.
func New(cfg Config, id int, store *mem.Store) *Partition {
	if cfg.Latency == 0 {
		cfg.Latency = DefaultConfig().Latency
	}
	if cfg.IssueInterval == 0 {
		cfg.IssueInterval = DefaultConfig().IssueInterval
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultConfig().QueueCap
	}
	if cfg.Banks == 0 {
		cfg.Banks = 8
	}
	if cfg.RowBlocks == 0 {
		cfg.RowBlocks = 16
	}
	if cfg.RowHitLatency == 0 {
		cfg.RowHitLatency = 120
	}
	if cfg.RowMissLatency == 0 {
		cfg.RowMissLatency = 280
	}
	p := &Partition{cfg: cfg, id: id, store: store, pool: &mem.Pool{}}
	if cfg.Banked {
		p.banked.banks = make([]bank, cfg.Banks)
	}
	return p
}

// Stats returns the partition's counters.
func (p *Partition) Stats() *stats.DRAMStats { return &p.stats }

// Pending reports queued plus in-flight requests.
func (p *Partition) Pending() int { return len(p.queue) + len(p.fills) }

// SetFailFlag makes the partition's first protocol violation also
// raise flag, so the owner can poll one flag instead of every Err.
func (p *Partition) SetFailFlag(flag *atomic.Bool) { p.failed = flag }

// Err reports the first protocol violation seen by the partition, or
// nil.
func (p *Partition) Err() error {
	if p.fail == nil {
		return nil
	}
	return p.fail
}

// DumpState snapshots the partition for failure diagnostics.
func (p *Partition) DumpState() diag.DRAMState {
	return diag.DRAMState{ID: p.id, Queue: len(p.queue), Fills: len(p.fills)}
}

// Enqueue accepts a DRAMRd or DRAMWr request; it returns false when the
// queue is full and the L2 bank must retry.
func (p *Partition) Enqueue(msg *mem.Msg) bool {
	if len(p.queue) >= p.cfg.QueueCap {
		return false
	}
	p.queue = append(p.queue, msg)
	return true
}

// Tick issues requests and delivers due fills. The flat model issues
// the queue head every IssueInterval with a fixed latency; the banked
// model schedules per-bank with row-buffer timing.
func (p *Partition) Tick(now uint64) {
	if p.cfg.Banked {
		p.tickBanked(now)
		return
	}
	if len(p.queue) > 0 && now >= p.nextIssue {
		msg := p.queue[0]
		// Shift-down dequeue: the queue is bounded by QueueCap and
		// usually near-empty, so copying keeps one backing array alive
		// forever instead of resliced-append churn.
		copy(p.queue, p.queue[1:])
		p.queue[len(p.queue)-1] = nil
		p.queue = p.queue[:len(p.queue)-1]
		p.nextIssue = now + p.cfg.IssueInterval
		p.stats.BusyCycles += p.cfg.IssueInterval
		p.serve(msg, now, p.cfg.Latency)
	}
	p.deliverDue(now)
}

// serve performs one request: reads snapshot and schedule a fill after
// latency; writes apply immediately.
func (p *Partition) serve(msg *mem.Msg, now, latency uint64) {
	switch msg.Type {
	case mem.DRAMRd:
		p.stats.Reads++
		fill := p.pool.Msg()
		*fill = mem.Msg{
			Type:  mem.DRAMFill,
			Block: msg.Block,
			Src:   p.id,
			Dst:   msg.Src,
			ReqID: msg.ReqID,
		}
		p.store.ReadBlock(msg.Block, fill.Payload())
		p.fills.push(fill2{at: now + latency, seq: p.fillSeq(), msg: fill})
		p.pool.PutMsg(msg)
	case mem.DRAMWr:
		p.stats.Writes++
		p.store.WriteBlock(msg.Block, msg.Data, msg.Mask)
		p.pool.PutMsg(msg)
	default:
		if p.fail == nil {
			p.fail = diag.Errf(fmt.Sprintf("dram[%d]", p.id), "unexpected-message",
				"message %v for block %v from bank %d", msg.Type, msg.Block, msg.Src)
			if p.failed != nil {
				p.failed.Store(true)
			}
		}
	}
}

// deliverDue hands completed fills to the L2.
func (p *Partition) deliverDue(now uint64) {
	for len(p.fills) > 0 && p.fills[0].at <= now {
		f := p.fills.pop()
		p.Deliver(f.msg)
	}
}

// fillSeq is the FIFO tiebreak for fills due the same cycle, keeping
// delivery order deterministic and independent of heap layout.
func (p *Partition) fillSeq() uint64 { p.seqCtr++; return p.seqCtr }

type fill2 struct {
	at  uint64
	seq uint64
	msg *mem.Msg
}

// fillHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// replaces container/heap to avoid interface boxing on the fill path;
// (at, seq) is a total order, so pop order is fully deterministic.
type fillHeap []fill2

func (h fillHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *fillHeap) push(f fill2) {
	*h = append(*h, f)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *fillHeap) pop() fill2 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = fill2{} // drop the msg reference for the GC
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(s) {
			break
		}
		c := l
		if r < len(s) && s.less(r, l) {
			c = r
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	return top
}

// Never is the NextEvent result when no event is scheduled at all
// (shared sentinel, see internal/sched).
const Never = sched.Never

// NextEvent returns the earliest future cycle (> now) at which ticking
// the partition could change state: the next issue opportunity while
// requests are queued, or the earliest scheduled fill delivery. The
// queued-request bound is conservative for the banked model (a free
// bank may appear later than nextIssue), which only shortens skip
// windows, never reorders events. Returns Never when idle.
//
// The per-component wake dispatcher skips Tick entirely on cycles
// before the registered wake, so this bound carries a no-op contract:
// for any u with now < u < NextEvent(now), Tick(u) must not change
// state. That holds because the partition keeps no local clock — all
// timing state (nextIssue, fill due-times, bank busyTill) is absolute —
// and both tick bodies only act when now reaches one of those
// deadlines, each of which is >= the bound returned here. New work can
// only arrive via Enqueue, whose caller (the owning L2, see
// memsys.dramSender) re-registers the wake at enqueue time.
func (p *Partition) NextEvent(now uint64) uint64 {
	next := uint64(Never)
	if len(p.queue) > 0 {
		next = max(p.nextIssue, now+1)
	}
	if len(p.fills) > 0 {
		next = min(next, max(p.fills[0].at, now+1))
	}
	return next
}
