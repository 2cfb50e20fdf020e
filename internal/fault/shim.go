package fault

import (
	"fmt"
	"io"
	"sort"

	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
)

// DelayShim interposes on a delivery callback (NoC→L1, NoC→L2 or
// DRAM→L2) and perturbs when messages are handed to the receiving
// controller. Messages between one (src,dst) pair are never reordered
// relative to each other — the directory protocol, like real
// protocols, assumes point-to-point FIFO channels — but delivery may
// be delayed, and the order *across* pairs within a cycle may be
// shuffled.
//
// The shim holds messages the underlying transport has already
// retired, so the memory system must count Pending() toward its drain
// check or the simulator could declare the machine idle while
// messages sit here, and must register NextDue as the shim's wake on
// the event engine's agenda so no release cycle is skipped.
type DelayShim struct {
	name    string
	in      *Injector
	prob    float64
	max     uint64
	reorder bool
	deliver func(dst int, msg *mem.Msg)

	now   uint64
	pairs map[uint64]*pairQueue
	keys  []uint64 // sorted active pair keys, for deterministic iteration
	count int
	next  uint64 // earliest held due cycle; sched.Never when empty
}

type heldMsg struct {
	due uint64
	dst int
	msg *mem.Msg
}

type pairQueue struct{ items []heldMsg }

// NewDelayShim wires a shim over deliver. prob/max control per-message
// extra latency; reorder enables cross-pair same-cycle shuffling.
func NewDelayShim(name string, in *Injector, prob float64, max uint64, reorder bool,
	deliver func(dst int, msg *mem.Msg)) *DelayShim {
	if max == 0 {
		max = 1
	}
	return &DelayShim{
		name: name, in: in, prob: prob, max: max, reorder: reorder,
		deliver: deliver, pairs: make(map[uint64]*pairQueue), next: sched.Never,
	}
}

// Deliver stages one arriving message. It is installed in place of the
// component's original delivery callback.
func (d *DelayShim) Deliver(dst int, msg *mem.Msg) {
	var extra uint64
	if d.in.rng.chance(d.prob) {
		extra = 1 + d.in.rng.uint64n(d.max)
	}
	due := d.now + extra
	key := uint64(uint32(msg.Src))<<32 | uint64(uint32(dst))
	q, ok := d.pairs[key]
	if !ok {
		q = &pairQueue{}
		d.pairs[key] = q
		i := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= key })
		d.keys = append(d.keys, 0)
		copy(d.keys[i+1:], d.keys[i:])
		d.keys[i] = key
	}
	// Point-to-point FIFO: a delayed head delays everything behind it.
	if n := len(q.items); n > 0 && q.items[n-1].due > due {
		due = q.items[n-1].due
	}
	q.items = append(q.items, heldMsg{due: due, dst: dst, msg: msg})
	d.count++
	d.next = min(d.next, due)
}

// Sync sets the shim's clock. Call once per cycle before the wrapped
// transport ticks, so same-cycle deliveries are stamped correctly.
func (d *DelayShim) Sync(now uint64) { d.now = now }

// Release delivers every held message that is due, in per-pair FIFO
// order; with reordering enabled the pair runs are shuffled. Call
// after the wrapped transport's Tick so zero-delay messages still
// deliver in their arrival cycle.
func (d *DelayShim) Release() {
	if d.count == 0 {
		return
	}
	var runs [][]heldMsg
	d.next = sched.Never
	for _, key := range d.keys {
		q := d.pairs[key]
		n := 0
		for n < len(q.items) && q.items[n].due <= d.now {
			n++
		}
		if n < len(q.items) {
			d.next = min(d.next, q.items[n].due)
		}
		if n == 0 {
			continue
		}
		runs = append(runs, q.items[:n:n])
		q.items = q.items[n:]
	}
	if d.reorder && len(runs) > 1 {
		for i := len(runs) - 1; i > 0; i-- {
			j := d.in.rng.intn(i + 1)
			runs[i], runs[j] = runs[j], runs[i]
		}
	}
	for _, run := range runs {
		for _, h := range run {
			d.count--
			d.deliver(h.dst, h.msg)
		}
	}
}

// NextDue returns the earliest cycle at which Release would deliver a
// held message, or sched.Never when the shim holds nothing. Per-pair
// due cycles never decrease, so after Release at cycle now it is
// always > now; a Deliver can only lower it, to no earlier than the
// shim's clock.
func (d *DelayShim) NextDue() uint64 { return d.next }

// Pending reports messages the shim is holding.
func (d *DelayShim) Pending() int { return d.count }

// Name identifies the shim in diagnostics.
func (d *DelayShim) Name() string { return d.name }

// DigestState writes a canonical rendering of the shim's held
// messages, in sorted pair order and per-pair FIFO order, for state
// digests.
func (d *DelayShim) DigestState(w io.Writer) {
	if d.count == 0 {
		return
	}
	fmt.Fprintf(w, "shim %s now=%d held=%d\n", d.name, d.now, d.count)
	for _, key := range d.keys {
		for _, h := range d.pairs[key].items {
			fmt.Fprintf(w, "held %d %d ", h.due, h.dst)
			h.msg.DigestInto(w)
		}
	}
}
