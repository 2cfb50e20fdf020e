// Relaxed-synchronization (bounded-slack) execution support: epoch
// buffers, barrier-time NoC exchange, and staged observation shims.
//
// In relaxed mode the simulator partitions the machine into domains —
// one per SM (the SM plus its private L1), one per L2 bank (the bank
// plus its DRAM partition) — and lets each domain free-run up to a
// slack bound of N cycles between epoch barriers. Everything a domain
// touches mid-epoch is domain-private; the only cross-domain channel
// is the NoC, and every NoC injection a domain attempts is captured in
// that domain's epochBuf tagged with the domain-local cycle. At the
// barrier the master replays the NoC cycle by cycle over the epoch
// window, injecting each buffered message at its tagged cycle in
// canonical port order, so the wire-level event sequence depends only
// on what the domains did — never on how their execution interleaved.
//
// Injections always "succeed" from the sending controller's point of
// view (the buffer is unbounded); when the replay meets a full port
// the message is parked in a per-port held queue and injected on a
// later replay cycle, preserving FIFO order. That is the one place
// relaxed timing deviates from the bit-exact engine beyond delivery
// crossing a barrier: backpressure a controller would have seen as a
// failed TrySend is absorbed as extra port latency instead. Both
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

// relaxDir aggregates one NoC direction's (toL2 or toL1) relaxed
// injection state across all of its ports, so the exchange can decide
// in O(1) per cycle whether the direction needs a port scan at all:
// pend counts un-injected messages (buffered + held), held counts the
// parked subset (always due), and due is a lower bound on the
// earliest buffered tag (exact after each scan; adds only lower it).
type relaxDir struct {
	pend int
	held int
	due  uint64
}

// epochBuf collects one component's outbound NoC messages during a
// relaxed epoch. now is maintained by the domain runner as it ticks.
//
// live points at the direction aggregate while the MASTER owns the
// buffer, and is nil while a domain worker does: SM-domain adds run
// concurrently across workers and must not touch shared state, so the
// exchange instead reconciles the toL2 aggregate from a buffer scan
// at its start, then takes ownership (deliveries during the exchange
// can trigger further L1 sends, which the gate must see). Bank
// buffers are master-owned always — banks only tick inside the
// exchange — so their live stays set permanently.
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

// relaxSender interposes one L2 bank's response path to the NoC so the
// bank's sends can be captured mid-epoch. Outside relaxed mode it is a
// transparent passthrough (one branch).
type relaxSender struct {
	real  coherence.Sender
	relax *epochBuf
}

func (rs *relaxSender) TrySend(msg *mem.Msg) bool {
	if rs.relax.on {
		rs.relax.add(msg)
		return true
	}
	return rs.real.TrySend(msg)
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
	for b := range s.relaxPartNext {
		s.relaxPartNext[b] = 0 // forces a tick on the first exchange cycle
		s.relaxPartStale[b] = false
	}
	for _, b := range s.relaxL1 {
		b.on = true
	}
	for _, b := range s.relaxL2 {
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
	for i, b := range s.relaxL2 {
		if b.pending() != 0 {
			panic(fmt.Sprintf("memsys: relaxed L2 buffer %d not drained at phase end", i))
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
// the entire shared side of the machine — the NoC, the L2 banks, and
// the DRAM partitions — cycle-exactly over (from, to] on the master.
// Each replay cycle ticks the network (delivering wire arrivals at
// their true cycles), injects due L1->L2 buffered messages in
// canonical SM order, ticks every non-quiescent mem domain (DRAM
// partition, then its L2 bank — the canonical intra-cycle order), and
// immediately injects the responses those banks produced, so a
// request that arrives mid-window is serviced at its arrival cycle
// and its response rides the wire within the same barrier. Only the
// receiving SM domain's *observation* of a response waits for the
// epoch boundary — the whole round trip no longer pays an epoch per
// hop, which is what keeps relaxed cycle counts close to bit-exact.
//
// Port backpressure parks messages in per-port held queues,
// preserving FIFO order across cycles and epochs. Quiescent banks
// with no scheduled DRAM event are skipped per cycle (clock-synced
// only); a delivery makes a bank non-quiescent and re-engages it the
// same cycle. When the whole shared side is provably inert — nothing
// held, no buffered injection due, an idle wire (NextWork is exact
// after a tick and injections maintain it), and every bank quiescent
// with no scheduled DRAM event — the replay jumps straight to the
// next event, exactly the skip the scheduled-wake engine performs.
// Returns the messages injected into the NoC, the number parked
// behind a full port, and the mem-domain cycles executed vs skipped.
func (s *System) RelaxedExchange(from, to uint64) (injected, held int, memTicks, memSkipped uint64) {
	banks := uint64(len(s.L2s))
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
	// memNext: cycle at which the bank loop must next run while every
	// bank is quiescent (min of their partitions' next events); any L2
	// delivery re-engages the loop regardless, detected in O(1) via the
	// network's delivery counter.
	memNext := uint64(0)
	delivered := s.Net.DeliveredL2()
	for c := from + 1; c <= to; c++ {
		s.clock = c
		s.Net.Tick(c)
		if d := &s.relaxToL2; d.pend != 0 && (d.held != 0 || d.due <= c) {
			d.due = noc.Never
			for i, b := range s.relaxL1 {
				// Idle-port fast path: nothing held, nothing due — just
				// fold the head tag (if any) back into the watermark.
				if len(s.heldL2[i]) == 0 && (b.cur >= len(b.buf) || b.buf[b.cur].at > c) {
					if b.cur < len(b.buf) && b.buf[b.cur].at < d.due {
						d.due = b.buf[b.cur].at
					}
					continue
				}
				inj, h := s.relaxInjectPort(c, b, &s.heldL2[i], d, true)
				injected, held = injected+inj, held+h
			}
		}
		if d2 := s.Net.DeliveredL2(); d2 != delivered || memNext <= c {
			delivered = d2
			memNext = noc.Never
			for b, l2 := range s.L2s {
				if l2.Quiescent() {
					// Lazily recompute the partition's next event: only
					// on the busy->quiescent transition, not per busy
					// cycle.
					if s.relaxPartStale[b] {
						s.relaxPartNext[b] = s.Parts[b].NextEvent(c)
						s.relaxPartStale[b] = false
					}
					if s.relaxPartNext[b] > c {
						l2.SyncClock(c)
						memSkipped++
						memNext = min(memNext, s.relaxPartNext[b])
						continue
					}
				}
				s.relaxL2[b].now = c
				s.Parts[b].Tick(c)
				l2.Tick(c)
				s.relaxPartStale[b] = true
				memTicks++
				memNext = c + 1 // still (possibly) busy: come back next cycle
			}
		} else {
			memSkipped += banks
		}
		if d := &s.relaxToL1; d.pend != 0 && (d.held != 0 || d.due <= c) {
			d.due = noc.Never
			for i, b := range s.relaxL2 {
				if len(s.heldL1[i]) == 0 && (b.cur >= len(b.buf) || b.buf[b.cur].at > c) {
					if b.cur < len(b.buf) && b.buf[b.cur].at < d.due {
						d.due = b.buf[b.cur].at
					}
					continue
				}
				inj, h := s.relaxInjectPort(c, b, &s.heldL1[i], d, false)
				injected, held = injected+inj, held+h
			}
		}
		if c >= to || s.relaxHeld != 0 {
			continue
		}
		// Event-skip: after injection, every remaining buffered message
		// is tagged > c, so the earliest future event is the min of the
		// wire's next work, the next due injection, and the bank loop's
		// next engagement. NextWork is the cheapest bound, so check it
		// before the rest.
		next := s.Net.NextWork(c)
		if next <= c+1 {
			continue
		}
		next = min(next, memNext)
		if s.relaxToL2.pend != 0 {
			next = min(next, s.relaxToL2.due)
		}
		if s.relaxToL1.pend != 0 {
			next = min(next, s.relaxToL1.due)
		}
		if next > c+1 {
			j := min(next-1, to)
			memSkipped += (j - c) * banks
			c = j
		}
	}
	s.clock = to
	s.Net.Sync(to)
	for _, l2 := range s.L2s {
		l2.SyncClock(to)
	}
	for _, b := range s.relaxL1 {
		if b.cur == len(b.buf) {
			b.buf, b.cur = b.buf[:0], 0
		}
	}
	for _, b := range s.relaxL2 {
		if b.cur == len(b.buf) {
			b.buf, b.cur = b.buf[:0], 0
		}
	}
	return injected, held, memTicks, memSkipped
}

// RelaxedDeliveryHorizon returns a sound lower bound on the earliest
// cycle at which an L1 could receive a delivery, given the traffic in
// flight right now: NoC wire and port state, plus any parked or
// still-buffered L2->L1 messages (those could inject on the next
// exchange cycle, so they clamp the horizon to now+1). Never when no
// L1-bound traffic exists. The relaxed engine pulls the next epoch
// barrier in to this cycle (rounded up to its fine grid) so response
// latency is not stretched to the full slack bound.
func (s *System) RelaxedDeliveryHorizon(now uint64) uint64 {
	if s.relaxToL1.pend != 0 {
		return now + 1
	}
	return s.Net.NextL1Arrival(now)
}

// relaxInjectPort injects one port's due traffic at replay cycle c:
// held messages first (oldest first), then newly due buffered
// messages. Once one message is held, everything younger on the same
// port holds too — ports are FIFO. The direction aggregate d is kept
// exact: pend drops per injection, held tracks parked messages, and
// the port's next buffered tag (if any) is folded into due.
func (s *System) relaxInjectPort(c uint64, b *epochBuf, heldQ *[]*mem.Msg, d *relaxDir, toL2 bool) (injected, held int) {
	send := s.Net.SendToL1
	if toL2 {
		send = s.Net.SendToL2
	}
	for len(*heldQ) > 0 && send((*heldQ)[0]) {
		(*heldQ)[0] = nil
		*heldQ = (*heldQ)[1:]
		s.relaxHeld--
		d.held--
		d.pend--
		injected++
	}
	for b.cur < len(b.buf) && b.buf[b.cur].at <= c {
		msg := b.buf[b.cur].msg
		b.buf[b.cur].msg = nil
		b.cur++
		if len(*heldQ) == 0 && send(msg) {
			d.pend--
			injected++
			continue
		}
		*heldQ = append(*heldQ, msg)
		s.relaxHeld++
		d.held++
		held++
	}
	if b.cur < len(b.buf) && b.buf[b.cur].at < d.due {
		d.due = b.buf[b.cur].at
	}
	return injected, held
}

// RelaxedHeld reports how many barrier injections are currently parked
// behind full ports.
func (s *System) RelaxedHeld() int { return s.relaxHeld }

// relaxPending counts relaxed-mode in-flight work: buffered epoch
// sends not yet replayed plus held-queue messages. Zero whenever
// relaxed mode is off.
func (s *System) relaxPending() int {
	n := s.relaxHeld
	for _, b := range s.relaxL1 {
		n += b.pending()
	}
	for _, b := range s.relaxL2 {
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
