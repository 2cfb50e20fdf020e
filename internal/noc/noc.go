// Package noc models the on-chip interconnect between the SMs' private
// L1 caches and the shared L2 banks: a crossbar with per-port
// serialization (one flit per cycle per injection port), a fixed pipe
// latency, and bounded injection queues that exert backpressure on the
// cache controllers. NoC bandwidth is the GPU's scarce resource the
// paper's traffic results (Fig 15) revolve around, so every message's
// flit count is accounted.
package noc

import (
	"sort"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// Config sets the interconnect parameters.
type Config struct {
	// Topology selects crossbar (default, the paper's model) or mesh.
	Topology Topology
	// Latency is the crossbar pipe traversal latency in cycles,
	// applied after serialization (default 16).
	Latency uint64
	// PerHop is the mesh per-hop latency in cycles (default 3).
	PerHop uint64
	// InjectQueue is the per-port injection queue depth in messages
	// (default 8). A full queue rejects TrySend.
	InjectQueue int
}

// DefaultConfig returns the parameters used by the paper-scale setup.
func DefaultConfig() Config { return Config{Latency: 16, InjectQueue: 8} }

// DefaultMeshConfig returns a 2D-mesh interconnect configuration.
func DefaultMeshConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = Mesh
	return cfg
}

// Network is a crossbar between nSM request ports and nBank response
// ports. Delivery callbacks hand arrived messages to the receiving
// controller.
type Network struct {
	cfg    Config
	now    uint64
	next   uint64  // cached earliest cycle ticking could change state (lower bound; Never when empty)
	toL2   []*port // one per SM
	toL1   []*port // one per L2 bank
	wire   arrivalHeap
	seqCtr uint64
	stats  stats.NoCStats
	mesh   meshState

	// DeliverL2 receives messages addressed to bank Dst.
	DeliverL2 func(bank int, msg *mem.Msg)
	// DeliverL1 receives messages addressed to SM Dst.
	DeliverL1 func(sm int, msg *mem.Msg)

	inFlight    int
	deliveredL2 uint64 // lifetime count of wire deliveries into L2 banks
}

// DeliveredL2 returns the lifetime count of messages delivered into L2
// banks. The relaxed exchange compares successive values to learn,
// in O(1), whether a tick handed any bank new work.
func (n *Network) DeliveredL2() uint64 { return n.deliveredL2 }

// New builds a crossbar with nSM SM-side ports and nBank bank-side ports.
func New(cfg Config, nSM, nBank int) *Network {
	n := &Network{cfg: cfg, next: Never}
	if n.cfg.Latency == 0 {
		n.cfg.Latency = DefaultConfig().Latency
	}
	if n.cfg.InjectQueue == 0 {
		n.cfg.InjectQueue = DefaultConfig().InjectQueue
	}
	if n.cfg.PerHop == 0 {
		n.cfg.PerHop = 3
	}
	if n.cfg.Topology == Mesh {
		n.initMesh(nSM, nBank)
	}
	n.toL2 = make([]*port, nSM)
	for i := range n.toL2 {
		n.toL2[i] = &port{cap: n.cfg.InjectQueue}
	}
	n.toL1 = make([]*port, nBank)
	for i := range n.toL1 {
		n.toL1[i] = &port{cap: n.cfg.InjectQueue}
	}
	return n
}

// Stats returns the accumulated traffic counters.
func (n *Network) Stats() *stats.NoCStats { return &n.stats }

// Pending reports messages queued or in flight, for drain checks.
func (n *Network) Pending() int { return n.inFlight }

// DumpState snapshots the interconnect for failure diagnostics: port
// queue depths and the oldest in-flight wire transactions (capped at
// diag.WireCap).
func (n *Network) DumpState() diag.NoCState {
	s := diag.NoCState{InFlight: n.inFlight, WireTotal: len(n.wire)}
	for i, p := range n.toL2 {
		if p.len() > 0 || p.busyUntil > n.now {
			s.ToL2 = append(s.ToL2, diag.PortState{ID: i, Queue: p.len(), BusyUntil: p.busyUntil})
		}
	}
	for i, p := range n.toL1 {
		if p.len() > 0 || p.busyUntil > n.now {
			s.ToL1 = append(s.ToL1, diag.PortState{ID: i, Queue: p.len(), BusyUntil: p.busyUntil})
		}
	}
	wire := make([]arrival, len(n.wire))
	copy(wire, n.wire)
	sort.Slice(wire, func(i, j int) bool {
		if wire[i].at != wire[j].at {
			return wire[i].at < wire[j].at
		}
		return wire[i].seq < wire[j].seq
	})
	for _, a := range wire {
		if len(s.Wire) >= diag.WireCap {
			break
		}
		s.Wire = append(s.Wire, diag.TxnState{
			Due: a.at, Type: a.msg.Type.String(), Block: a.msg.Block.String(),
			Src: a.msg.Src, Dst: a.msg.Dst, ToL2: a.toL2,
		})
	}
	return s
}

// SendToL2 injects a request from SM msg.Src toward bank msg.Dst.
func (n *Network) SendToL2(msg *mem.Msg) bool {
	p := n.toL2[msg.Src]
	if !p.push(msg, n.now) {
		return false
	}
	n.inFlight++
	n.noteWork(p)
	return true
}

// SendToL1 injects a response from bank msg.Src toward SM msg.Dst.
func (n *Network) SendToL1(msg *mem.Msg) bool {
	p := n.toL1[msg.Src]
	if !p.push(msg, n.now) {
		return false
	}
	n.inFlight++
	n.noteWork(p)
	return true
}

// noteWork lowers the cached next-event cycle after an injection: the
// port just became (or stayed) non-empty, so its head can serialize no
// earlier than the later of the port going un-busy and the next tick.
//
// Staleness audit (every event that can schedule EARLIER work must
// invalidate the cache, or NextWork overclaims and the wake engine
// sleeps through real work):
//
//   - Injection (SendToL2/SendToL1): handled here, on every push.
//   - Port credit return (busyUntil expiry): busyUntil only ever moves
//     inside drainPort, which runs inside Tick, and Tick rebuilds the
//     cache from its drain results — already covered.
//   - Wire arrivals: pushed only by drainPort; Tick's post-drain wire
//     top check covers them.
//
// The one remaining hazard is the clock itself: the clamp below reads
// n.now, so if the network's clock lags the machine's (its tick was
// skipped by the per-component dispatcher), an injection would register
// a wake in the PAST and Horizon would clamp it into an extra no-op
// tick at best — or, worse, the enqueue timestamp behind QueueDelay
// would be wrong. Sync keeps n.now current on exactly the cycles Tick
// is skipped, closing that hole; TestNoCWakeMovesUpOnInject pins the
// mid-quiet-window behaviour.
func (n *Network) noteWork(p *port) {
	if c := max(p.busyUntil, n.now+1); c < n.next {
		n.next = c
	}
}

// Sync advances the network's local clock without ticking it. The
// per-component wake dispatcher calls this on executed cycles where
// the network's wake is not due: n.now feeds the enqueue timestamps
// behind the QueueDelay stat and the noteWork clamp, so it must track
// the global clock even on cycles the tick body provably would not
// run. It touches nothing else — exactly what Tick does on a quiet
// cycle (now < n.next), minus the due-check.
func (n *Network) Sync(now uint64) { n.now = now }

// Tick serializes queued messages onto the wire and delivers arrivals.
//
// The cached next-event cycle makes ticking a provably idle network
// O(1): n.next is a lower bound on the first cycle at which any port
// head could serialize or any wire arrival come due (maintained by
// noteWork on injection and recomputed after real work below), so when
// now < n.next the full body would scan every port and the wire top
// and do nothing — we return without the scan, leaving identical state.
func (n *Network) Tick(now uint64) {
	n.now = now
	if now < n.next {
		return
	}
	// The cache is rebuilt incrementally during the drains below rather
	// than by a trailing NextEvent rescan: each port's head-serialize
	// cycle is known the moment its drain stops, and the wire's earliest
	// arrival is its heap top once the due deliveries pop. Delivery
	// callbacks can inject new messages mid-tick; resetting the cache to
	// Never first lets noteWork fold those in, and the final min keeps
	// the result identical to the full rescan.
	n.next = Never
	next := uint64(Never)
	for _, p := range n.toL2 {
		if c := n.drainPort(p, true, now); c < next {
			next = c
		}
	}
	for _, p := range n.toL1 {
		if c := n.drainPort(p, false, now); c < next {
			next = c
		}
	}
	for len(n.wire) > 0 && n.wire[0].at <= now {
		a := n.wire.pop()
		n.inFlight--
		if a.toL2 {
			n.deliveredL2++
			n.DeliverL2(a.msg.Dst, a.msg)
		} else {
			n.DeliverL1(a.msg.Dst, a.msg)
		}
	}
	if len(n.wire) > 0 {
		if c := max(n.wire[0].at, now+1); c < next {
			next = c
		}
	}
	if next < n.next {
		n.next = next
	}
}

// drainPort serializes the port's due heads onto the wire and returns
// the cycle its remaining head can next serialize (Never if it drained
// empty), feeding Tick's incremental next-event rebuild.
func (n *Network) drainPort(p *port, toL2 bool, now uint64) uint64 {
	for p.len() > 0 && p.busyUntil <= now {
		head := p.pop()
		msg := head.msg
		n.stats.QueueDelay += now - head.enq
		flits := uint64(msg.Flits())
		p.busyUntil = now + flits
		bytes := uint64(msg.WireBytes())
		if toL2 {
			n.stats.MsgsToL2++
			n.stats.FlitsToL2 += flits
			n.stats.BytesToL2 += bytes
		} else {
			n.stats.MsgsToL1++
			n.stats.FlitsToL1 += flits
			n.stats.BytesToL1 += bytes
		}
		lat := n.cfg.Latency
		if n.cfg.Topology == Mesh {
			lat = n.meshLatency(msg, toL2)
			lat += n.bisectionDelay(msg, toL2, now+flits)
		}
		n.wire.push(arrival{at: now + flits + lat, seq: n.seq(), msg: msg, toL2: toL2})
	}
	if p.len() == 0 {
		return Never
	}
	return max(p.busyUntil, now+1)
}

// seq is a per-network monotone counter used as the FIFO tiebreak for
// same-cycle arrivals. It is a Network field (not a package global) so
// that concurrently running simulations never share mutable state.
func (n *Network) seq() uint64 { n.seqCtr++; return n.seqCtr }

type queued struct {
	msg *mem.Msg
	enq uint64
}

// port is a bounded FIFO injection queue. Dequeue advances a head
// index instead of reslicing so the backing array is reused once the
// queue drains, and a full backing whose front half is consumed slides
// its live tail down instead of growing (a busy port may never drain),
// keeping the per-message cost allocation-free in steady state.
type port struct {
	q         []queued
	head      int
	cap       int
	busyUntil uint64
}

func (p *port) len() int { return len(p.q) - p.head }

func (p *port) push(m *mem.Msg, now uint64) bool {
	if p.len() >= p.cap {
		return false
	}
	if len(p.q) == cap(p.q) && 2*p.head >= len(p.q) && p.head > 0 {
		n := copy(p.q, p.q[p.head:])
		clear(p.q[n:])
		p.q, p.head = p.q[:n], 0
	}
	p.q = append(p.q, queued{msg: m, enq: now})
	return true
}

func (p *port) pop() queued {
	v := p.q[p.head]
	p.q[p.head] = queued{} // drop the msg reference for the GC
	p.head++
	if p.head == len(p.q) {
		p.q = p.q[:0]
		p.head = 0
	}
	return v
}

type arrival struct {
	at   uint64
	seq  uint64 // FIFO tiebreak for same-cycle arrivals
	msg  *mem.Msg
	toL2 bool
}

// arrivalHeap is a hand-rolled binary min-heap ordered by (at, seq).
// It replaces container/heap to avoid the interface boxing that
// allocated on every wire push/pop; (at, seq) is a total order (seq is
// unique per network), so pop order is identical.
type arrivalHeap []arrival

func (h arrivalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
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

func (h *arrivalHeap) pop() arrival {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = arrival{} // drop the msg reference for the GC
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
// the network could change any state: the earliest cycle a non-empty
// injection port can serialize its head onto the wire, or the earliest
// wire arrival. It returns Never when the network is completely empty.
// The cycle-skipping engine uses this to fast-forward the clock across
// provably idle cycles without perturbing delivery order.
func (n *Network) NextEvent(now uint64) uint64 {
	next := uint64(Never)
	for _, p := range n.toL2 {
		if p.len() > 0 {
			next = min(next, max(p.busyUntil, now+1))
		}
	}
	for _, p := range n.toL1 {
		if p.len() > 0 {
			next = min(next, max(p.busyUntil, now+1))
		}
	}
	if len(n.wire) > 0 {
		next = min(next, max(n.wire[0].at, now+1))
	}
	return next
}

// NextWork returns the cached next-event cycle in O(1) for the
// scheduled-wake engine. It is exact (equal to NextEvent) whenever the
// network was ticked at its current clock, and otherwise still a sound
// wake cycle: the cache only ever under-estimates (candidates were
// clamped to an older now+1), and under-estimates are clamped back up
// to now+1 here, which merely schedules a no-op tick.
func (n *Network) NextWork(now uint64) uint64 {
	if n.next <= now {
		return now + 1
	}
	return n.next
}

// NextL1Arrival returns a sound lower bound on the earliest cycle at
// which any in-flight L1-bound message can be delivered: the minimum
// over wire arrivals already bound for L1s and the earliest possible
// arrival of each toL1 port's head (serialize no earlier than the
// port frees, then flits plus base route latency — the mesh's
// bisection stall only ever adds delay, so omitting it keeps the
// bound sound). Never when nothing L1-bound is in flight. The relaxed
// engine uses this to pull epoch barriers in to response arrivals so
// a stalled SM observes its data without waiting out the full slack.
func (n *Network) NextL1Arrival(now uint64) uint64 {
	next := uint64(Never)
	for _, a := range n.wire {
		if !a.toL2 && a.at < next {
			next = a.at
		}
	}
	for _, p := range n.toL1 {
		if p.len() == 0 {
			continue
		}
		msg := p.q[p.head].msg
		lat := n.cfg.Latency
		if n.cfg.Topology == Mesh {
			lat = n.meshLatency(msg, false)
		}
		if at := max(p.busyUntil, now+1) + uint64(msg.Flits()) + lat; at < next {
			next = at
		}
	}
	return next
}
