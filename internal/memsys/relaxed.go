// Relaxed-synchronization (bounded-slack) execution support: epoch
// buffers, the barrier-time replay of the shared side, and staged
// observation shims.
//
// In relaxed mode each SM domain — the SM plus its private L1 —
// free-runs up to a slack bound of N cycles between epoch barriers.
// Everything an SM domain touches mid-epoch is domain-private; its only
// cross-domain channel is the NoC, and every NoC injection it attempts
// is captured in the domain's epochBuf tagged with the domain-local
// cycle. The shared side — the NoC, the DRAM partitions and the L2
// banks — never runs inside an epoch: at the barrier the master
// replays it over the epoch window through the exact engine's own
// shared-side dispatch and wake slots (wakes.go), injecting each
// buffered message at its tagged cycle in canonical port order, so the
// wire-level event sequence depends only on what the domains did —
// never on how their execution interleaved.
//
// An SM domain's injections always "succeed" from the sending L1's
// point of view (the buffer is unbounded); when the replay meets a
// full port the message is parked in a per-port held queue and
// injected on a later replay cycle, preserving FIFO order. That is the
// one place relaxed timing deviates from the bit-exact engine beyond
// delivery crossing a barrier: backpressure an L1 would have seen as a
// failed TrySend is absorbed as extra port latency instead. The banks
// send straight into the NoC and meet real backpressure. Both
// perturbations are latency-only, which every protocol here already
// tolerates (the chaos harness injects far worse), so functional
// results are preserved while cycle counts drift by a bounded amount.
package memsys

import (
	"fmt"
	"sort"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/noc"
)

// taggedMsg is one buffered injection and the domain-local cycle it
// was attempted at.
type taggedMsg struct {
	at  uint64
	msg *mem.Msg
}

// relaxDir aggregates the SM domains' relaxed injection state across
// all of their toL2 ports, so the exchange can decide in O(1) per cycle
// whether it needs a port scan at all: pend counts un-injected messages
// (buffered + held), held counts the parked subset (always due), and
// due is a lower bound on the earliest buffered tag (exact after each
// scan; adds only lower it).
type relaxDir struct {
	pend int
	held int
	due  uint64
}

// epochBuf collects one component's outbound NoC messages during a
// relaxed epoch. now is maintained by the domain runner as it ticks.
//
// live points at the aggregate while the MASTER owns the buffer, and
// is nil while a domain worker does: SM-domain adds run concurrently
// across workers and must not touch shared state, so the exchange
// instead reconciles the aggregate from a buffer scan at its start,
// then takes ownership (deliveries during the exchange can trigger
// further L1 sends, which the gate must see).
type epochBuf struct {
	on   bool
	now  uint64
	buf  []taggedMsg
	cur  int // barrier replay cursor
	live *relaxDir
}

func (b *epochBuf) add(m *mem.Msg) {
	if d := b.live; d != nil {
		d.pend++
		if b.now < d.due {
			d.due = b.now
		}
	}
	b.buf = append(b.buf, taggedMsg{b.now, m})
}

func (b *epochBuf) pending() int { return len(b.buf) - b.cur }

// l1Sender interposes one L1's request path to the NoC. Fault
// injection draws the transient-reject chance FIRST on every attempt,
// from this lane's private RNG stream (fault.LaneReject), so the
// perturbation schedule is a function of the lane's own send count and
// cannot depend on how SM domains interleave. In relaxed mode the send
// is captured in the SM domain's epoch buffer; otherwise it is a
// passthrough.
type l1Sender struct {
	real   coherence.Sender
	reject func() bool // per-lane fault draw; nil when not perturbed
	relax  *epochBuf
}

// TrySend implements coherence.Sender.
func (ls *l1Sender) TrySend(msg *mem.Msg) bool {
	if ls.reject != nil && ls.reject() {
		return false // transient fault: indistinguishable from a full port
	}
	if ls.relax.on {
		ls.relax.add(msg)
		return true
	}
	return ls.real.TrySend(msg)
}

// obsShim interposes one component's view of the run observer. While
// staging (relaxed mode), observations buffer instead of forwarding;
// the flush re-emits them on the master goroutine, merged across
// components in canonical cycle order, once per epoch.
type obsShim struct {
	real    coherence.Observer
	staging bool
	buf     []coherence.Op
}

// Observe implements coherence.Observer.
func (o *obsShim) Observe(op coherence.Op) {
	if o.staging {
		o.buf = append(o.buf, op)
		return
	}
	o.real.Observe(op)
}

func (o *obsShim) flush() {
	for i := range o.buf {
		o.real.Observe(o.buf[i])
	}
	o.buf = o.buf[:0]
}

// shimObs wraps obs with a fresh staging shim recorded in *slot;
// passthrough nil when no observer is attached.
func shimObs(obs coherence.Observer, slot **obsShim) coherence.Observer {
	if obs == nil {
		return nil
	}
	sh := &obsShim{real: obs}
	*slot = sh
	return sh
}

// RelaxedBegin arms the epoch buffers and observer shims for one
// relaxed run phase.
func (s *System) RelaxedBegin() {
	for _, b := range s.relaxL1 {
		b.on = true
	}
	for _, sh := range s.l1Obs {
		if sh != nil {
			sh.staging = true
		}
	}
	for _, sh := range s.l2Obs {
		if sh != nil {
			sh.staging = true
		}
	}
}

// RelaxedEnd disarms relaxed capture at the end of a run phase. Every
// epoch buffer must already have been drained by a barrier exchange;
// held-queue messages may survive (they are ordinary pending work the
// next phase's serial ticking would never see, so they must be empty
// by the time the phase declares itself drained — Drained() counts
// them).
func (s *System) RelaxedEnd() {
	for i, b := range s.relaxL1 {
		if b.pending() != 0 {
			panic(fmt.Sprintf("memsys: relaxed L1 buffer %d not drained at phase end", i))
		}
		b.on = false
	}
	for _, sh := range s.l1Obs {
		if sh != nil {
			sh.staging = false
			sh.flush()
		}
	}
	for _, sh := range s.l2Obs {
		if sh != nil {
			sh.staging = false
			sh.flush()
		}
	}
}

// RelaxedTickL1 advances SM domain i's L1 by one cycle. The epoch
// buffer's clock covers both the L1's own sends and the SM accesses
// that follow within the same domain cycle.
func (s *System) RelaxedTickL1(i int, c uint64) {
	s.relaxL1[i].now = c
	s.L1s[i].Tick(c)
}

// RelaxedExchange is the epoch barrier's coupling phase: it simulates
// the entire shared side of the machine — the NoC, the DRAM partitions
// and the L2 banks — over (from, to] on the master, through the exact
// engine's shared-side dispatch. Each executed replay cycle ticks the
// due shared components in canonical order (wire arrivals deliver at
// their true cycles; banks send straight onto the wire), then injects
// the due L1->L2 buffered messages in canonical SM order — where the
// exact engine's L1 and SM ticks send within a cycle — then
// re-registers the shared slots' wakes. The replay then jumps to the
// earliest shared-slot wake or buffered tag, syncing the shared
// clocks, exactly as the event engine skips a quiet window. A request
// that arrives mid-window is therefore serviced at its arrival cycle
// and its response rides the wire within the same barrier; only the
// receiving SM domain's *observation* of a response waits for the
// epoch boundary. d accumulates the dispatch decisions.
//
// Port backpressure on a replayed L1 send parks it in its port's held
// queue, preserving FIFO order across cycles and epochs; while any
// message is held the replay executes every cycle. Returns the
// SM-domain messages replayed into the NoC and the number parked
// behind a full port.
func (s *System) RelaxedExchange(from, to uint64, d *DispatchStats) (injected, held int) {
	// Reconcile the toL2 aggregate from the domain phase's buffered
	// sends (workers could not maintain it race-free), then take
	// master ownership so Deliver-triggered L1 sends during the
	// exchange keep it exact.
	dl2 := &s.relaxToL2
	dl2.pend = dl2.held
	dl2.due = noc.Never
	for _, b := range s.relaxL1 {
		dl2.pend += b.pending()
		if b.cur < len(b.buf) && b.buf[b.cur].at < dl2.due {
			dl2.due = b.buf[b.cur].at
		}
		b.live = dl2
	}
	defer func() {
		for _, b := range s.relaxL1 {
			b.live = nil
		}
	}()
	for c := from; c < to; {
		c++
		s.tickShared(c, d)
		if dl2.pend != 0 && (dl2.held != 0 || dl2.due <= c) {
			dl2.due = noc.Never
			for i, b := range s.relaxL1 {
				// Idle-port fast path: nothing held, nothing due — just
				// fold the head tag (if any) back into the watermark.
				if len(s.heldL2[i]) == 0 && (b.cur >= len(b.buf) || b.buf[b.cur].at > c) {
					if b.cur < len(b.buf) && b.buf[b.cur].at < dl2.due {
						dl2.due = b.buf[b.cur].at
					}
					continue
				}
				inj, h := s.relaxInjectPort(c, b, &s.heldL2[i])
				injected, held = injected+inj, held+h
			}
		}
		s.refreshShared(c)
		if dl2.held != 0 {
			continue
		}
		// After injection every remaining buffered message is tagged
		// > c, so the next cycle that can act is the earlier of the
		// shared side's horizon and the next due injection.
		next := s.sharedHorizon(c)
		if dl2.pend != 0 {
			next = min(next, dl2.due)
		}
		if j := min(next-1, to); j > c {
			c = j
			s.SyncClocks(j)
		}
	}
	// The window ends with every bank's clock at its end, as the exact
	// per-cycle order leaves it (the replay brings a sleeping bank's
	// clock current only when a delivery reads it).
	for _, l2 := range s.L2s {
		l2.SyncClock(to)
	}
	for _, b := range s.relaxL1 {
		if b.cur == len(b.buf) {
			b.buf, b.cur = b.buf[:0], 0
		}
	}
	return injected, held
}

// relaxInjectPort injects one SM domain's due traffic at replay cycle
// c: held messages first (oldest first), then newly due buffered
// messages. Once one message is held, everything younger on the same
// port holds too — ports are FIFO. The aggregate is kept exact: pend
// drops per injection, held tracks parked messages, and the port's
// next buffered tag (if any) is folded into due.
func (s *System) relaxInjectPort(c uint64, b *epochBuf, heldQ *[]*mem.Msg) (injected, held int) {
	d := &s.relaxToL2
	for len(*heldQ) > 0 && s.Net.SendToL2((*heldQ)[0]) {
		(*heldQ)[0] = nil
		*heldQ = (*heldQ)[1:]
		d.held--
		d.pend--
		injected++
	}
	for b.cur < len(b.buf) && b.buf[b.cur].at <= c {
		msg := b.buf[b.cur].msg
		b.buf[b.cur].msg = nil
		b.cur++
		if len(*heldQ) == 0 && s.Net.SendToL2(msg) {
			d.pend--
			injected++
			continue
		}
		*heldQ = append(*heldQ, msg)
		d.held++
		held++
	}
	if b.cur < len(b.buf) && b.buf[b.cur].at < d.due {
		d.due = b.buf[b.cur].at
	}
	return injected, held
}

// relaxPending counts relaxed-mode in-flight work: buffered epoch
// sends not yet replayed plus held-queue messages. Zero whenever
// relaxed mode is off.
func (s *System) relaxPending() int {
	n := s.relaxToL2.held
	for _, b := range s.relaxL1 {
		n += b.pending()
	}
	return n
}

// RelaxedFlushObs merges and emits the epoch's staged observations in
// canonical order: by cycle, L2 observations before L1 within a
// cycle, components in index order, each component's own observations
// in program order. This matches the serial engine's intra-cycle
// component order; only the interleaving of same-cycle observations
// across components can differ from bit-exact execution (concurrent
// events with no cross-domain ordering edge inside one cycle), which
// the coherence checkers accept by construction.
func (s *System) RelaxedFlushObs() {
	if s.obs == nil {
		return
	}
	type ent struct {
		op    coherence.Op
		class int // 0 = L2, 1 = L1
		idx   int // component index
		seq   int // program order within the component
	}
	var all []ent
	for i, sh := range s.l2Obs {
		for j := range sh.buf {
			all = append(all, ent{sh.buf[j], 0, i, j})
		}
		sh.buf = sh.buf[:0]
	}
	for i, sh := range s.l1Obs {
		for j := range sh.buf {
			all = append(all, ent{sh.buf[j], 1, i, j})
		}
		sh.buf = sh.buf[:0]
	}
	if len(all) == 0 {
		return
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].op.Cycle != all[b].op.Cycle {
			return all[a].op.Cycle < all[b].op.Cycle
		}
		if all[a].class != all[b].class {
			return all[a].class < all[b].class
		}
		if all[a].idx != all[b].idx {
			return all[a].idx < all[b].idx
		}
		return all[a].seq < all[b].seq
	})
	for i := range all {
		s.obs.Observe(all[i].op)
	}
}
