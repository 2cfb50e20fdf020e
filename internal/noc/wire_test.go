package noc

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/mem"
)

// arrivalHeap is the wire the calendar replaced, kept as the oracle: a
// binary min-heap ordered by (at, seq), a total order (seq is unique per
// network).
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
	s[last] = arrival{}
	s = s[:last]
	*h = s
	for i := 0; ; {
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

// refNet is the interconnect before the calendar wire: every tick scans
// all injection ports, and in-flight messages wait on an arrivalHeap.
// It borrows a Network for its ports, mesh state, counters and
// next-work cache; that Network's own wire stays empty.
type refNet struct {
	*Network
	heap arrivalHeap
}

func (r *refNet) Tick(now uint64) {
	n := r.Network
	n.now = now
	if now < n.next {
		return
	}
	n.next = Never
	next := uint64(Never)
	for _, p := range n.toL2 {
		next = min(next, r.drain(p, true, now))
	}
	for _, p := range n.toL1 {
		next = min(next, r.drain(p, false, now))
	}
	for len(r.heap) > 0 && r.heap[0].at <= now {
		a := r.heap.pop()
		n.inFlight--
		if a.toL2 {
			n.DeliverL2(a.msg.Dst, a.msg)
		} else {
			n.DeliverL1(a.msg.Dst, a.msg)
		}
	}
	if len(r.heap) > 0 {
		next = min(next, max(r.heap[0].at, now+1))
	}
	n.next = min(n.next, next)
}

func (r *refNet) drain(p *port, toL2 bool, now uint64) uint64 {
	n := r.Network
	for p.len() > 0 && p.busyUntil <= now {
		head := p.pop()
		msg := head.msg
		n.stats.QueueDelay += now - head.enq
		flits := uint64(msg.Flits())
		p.busyUntil = now + flits
		lat := n.cfg.Latency
		if n.cfg.Topology == Mesh {
			lat = n.meshLatency(msg, toL2) + n.bisectionDelay(msg, toL2, now+flits)
		}
		r.heap.push(arrival{at: now + flits + lat, seq: n.seq(), msg: msg, toL2: toL2})
	}
	if p.len() == 0 {
		return Never
	}
	return max(p.busyUntil, now+1)
}

func (r *refNet) NextL1Arrival(now uint64) uint64 {
	n := r.Network
	next := uint64(Never)
	for _, a := range r.heap {
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
		next = min(next, max(p.busyUntil, now+1)+uint64(msg.Flits())+lat)
	}
	return next
}

func (r *refNet) DigestState(w io.Writer) {
	n := r.Network
	fmt.Fprintf(w, "noc now=%d seq=%d inflight=%d bis=%d\n", n.now, n.seqCtr, n.inFlight, n.mesh.bisFree)
	digestPorts(w, "toL2", n.toL2)
	digestPorts(w, "toL1", n.toL1)
	wire := append(arrivalHeap(nil), r.heap...)
	sort.Slice(wire, wire.less)
	for _, a := range wire {
		fmt.Fprintf(w, "wire %d %d %t ", a.at, a.seq, a.toL2)
		a.msg.DigestInto(w)
	}
}

// wireNet is what the comparison drives on both networks.
type wireNet interface {
	SendToL2(*mem.Msg) bool
	SendToL1(*mem.Msg) bool
	Tick(now uint64)
	Sync(now uint64)
	NextWork(now uint64) uint64
	NextL1Arrival(now uint64) uint64
	DigestState(io.Writer)
}

// TestCalendarWireMatchesHeapOracle drives a crossbar, and a mesh whose
// bisection backlog pushes arrivals past the calendar's initial span,
// with the same randomized sends and the event engine's sleep-until-wake
// ticking, against the heap-wired oracle. Every cycle, deliveries (in
// order, with their cycle), NextWork, NextL1Arrival and DigestState must
// match.
func TestCalendarWireMatchesHeapOracle(t *testing.T) {
	cases := []struct {
		name              string
		cfg               Config
		burst             int    // most sends per SM on a burst cycle
		sendUntil, cycles uint64 // sends stop at sendUntil; the wire drains by cycles
		grows             bool
	}{
		{"crossbar", Config{Latency: 16, InjectQueue: 8}, 2, 800, 900, false},
		{"mesh", Config{Topology: Mesh, PerHop: 3, Latency: 16, InjectQueue: 64}, 4, 150, 1500, true},
	}
	const nSM, nBank = 16, 8
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type delivery struct {
				id, node int
				toL2     bool
				at       uint64
			}
			var now uint64
			var got, want []delivery
			record := func(log *[]delivery, toL2 bool) func(int, *mem.Msg) {
				return func(node int, m *mem.Msg) { *log = append(*log, delivery{int(m.ReqID), node, toL2, now}) }
			}
			cal := New(tc.cfg, nSM, nBank)
			cal.DeliverL2, cal.DeliverL1 = record(&got, true), record(&got, false)
			ref := &refNet{Network: New(tc.cfg, nSM, nBank)}
			ref.DeliverL2, ref.DeliverL1 = record(&want, true), record(&want, false)
			nets := []wireNet{cal, ref}

			rng := rand.New(rand.NewSource(7))
			id := 0
			send := func(toL2 bool, src, dst int, fill bool) {
				id++
				var accepted [2]bool
				for k, n := range nets {
					m := &mem.Msg{Type: mem.BusRd, Src: src, Dst: dst, ReqID: uint64(id)}
					if fill {
						m.Type, m.Data = mem.BusFill, &mem.Block{}
					}
					if toL2 {
						accepted[k] = n.SendToL2(m)
					} else {
						accepted[k] = n.SendToL1(m)
					}
				}
				if accepted[0] != accepted[1] {
					t.Fatalf("cycle %d: send %d accepted %v, oracle %v", now, id, accepted[0], accepted[1])
				}
			}
			for now = 1; now <= tc.cycles; now++ {
				// Due networks tick; sleeping ones only advance their
				// clocks, as the event engine dispatches them.
				if cal.NextWork(now-1) <= now || rng.Intn(8) == 0 {
					for _, n := range nets {
						n.Tick(now)
					}
				} else {
					for _, n := range nets {
						n.Sync(now)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("cycle %d: %d deliveries, oracle %d", now, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("cycle %d: delivery %d is %+v, oracle %+v", now, i, got[i], want[i])
					}
				}
				// Send after the tick, as controllers and SMs do.
				if now < tc.sendUntil && rng.Intn(4) == 0 {
					for sm := 0; sm < nSM; sm++ {
						for k := rng.Intn(tc.burst + 1); k > 0; k-- {
							send(true, sm, rng.Intn(nBank), rng.Intn(3) == 0)
						}
					}
					for b := 0; b < nBank; b++ {
						if rng.Intn(2) == 0 {
							send(false, b, rng.Intn(nSM), rng.Intn(2) == 0)
						}
					}
				}
				if a, b := cal.NextWork(now), ref.NextWork(now); a != b {
					t.Fatalf("cycle %d: NextWork %d, oracle %d", now, a, b)
				}
				if a, b := cal.NextL1Arrival(now), ref.NextL1Arrival(now); a != b {
					t.Fatalf("cycle %d: NextL1Arrival %d, oracle %d", now, a, b)
				}
				var a, b bytes.Buffer
				cal.DigestState(&a)
				ref.DigestState(&b)
				if !bytes.Equal(a.Bytes(), b.Bytes()) {
					t.Fatalf("cycle %d: digest differs from the oracle's\n%s\n--- oracle ---\n%s", now, a.String(), b.String())
				}
			}
			if len(got) == 0 || cal.Pending() != 0 {
				t.Fatalf("%d deliveries, %d still pending", len(got), cal.Pending())
			}
			if grew := len(cal.wire.buckets) > 32; grew != tc.grows {
				t.Fatalf("calendar span %d: grew = %v, want %v", len(cal.wire.buckets), grew, tc.grows)
			}
		})
	}
}

// TestCalendarWireAllocationFree pins that, once warmed up, a round of
// sends and the ticks that deliver them allocate nothing, on a crossbar
// and on a mesh whose backlog grew the calendar during warm-up.
func TestCalendarWireAllocationFree(t *testing.T) {
	for _, cfg := range []Config{
		{Latency: 16, InjectQueue: 8},
		{Topology: Mesh, PerHop: 3, Latency: 16, InjectQueue: 64},
	} {
		n := New(cfg, 16, 8)
		delivered := 0
		n.DeliverL2 = func(int, *mem.Msg) { delivered++ }
		n.DeliverL1 = func(int, *mem.Msg) { delivered++ }
		msgs := make([]*mem.Msg, 0, 16*8+8)
		for sm := 0; sm < 16; sm++ {
			for k := 0; k < cfg.InjectQueue; k++ {
				msgs = append(msgs, &mem.Msg{Type: mem.BusFill, Data: &mem.Block{}, Src: sm, Dst: (sm + k) % 8})
			}
		}
		var now uint64
		round := func() {
			delivered = 0
			for _, m := range msgs {
				if !n.SendToL2(m) {
					t.Fatal("send rejected")
				}
			}
			for delivered < len(msgs) {
				now++
				n.Tick(now)
			}
		}
		if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
			t.Errorf("%v: a warmed-up send/tick round allocates %.1f objects", cfg.Topology, allocs)
		}
		if grew := len(n.wire.buckets) > 32; grew != (cfg.Topology == Mesh) {
			t.Errorf("%v: calendar span %d", cfg.Topology, len(n.wire.buckets))
		}
	}
}
