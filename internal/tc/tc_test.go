package tc

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
)

// harness wires TC L1s to one TC L2 bank through explicit queues with
// an instant DRAM, under manual clock control (TC's behaviour is
// defined by physical time, so tests advance the clock deliberately).
type harness struct {
	t     *testing.T
	l1s   []*L1
	l2    *L2
	store *mem.Store

	toL2 []*mem.Msg
	toL1 []*mem.Msg
	dram []*mem.Msg
	now  uint64

	log []*mem.Msg
}

func newHarness(t *testing.T, nSM int, cfg Config, l2geo coherence.BankGeometry) *harness {
	h := &harness{t: t, store: mem.NewStore()}
	if l2geo.Sets == 0 {
		l2geo = coherence.BankGeometry{Sets: 64, Ways: 8}
	}
	h.l2 = NewL2(cfg, 0, l2geo,
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL1 = append(h.toL1, m); h.log = append(h.log, m.Clone()); return true }),
		coherence.SenderFunc(func(m *mem.Msg) bool { h.dram = append(h.dram, m); return true }),
		nil)
	for i := 0; i < nSM; i++ {
		h.l1s = append(h.l1s, NewL1(cfg, i, 1,
			coherence.L1Geometry{Sets: 16, Ways: 4, MSHRs: 8},
			coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); h.log = append(h.log, m.Clone()); return true }),
			nil))
	}
	return h
}

// step advances one cycle, moving all queued messages.
func (h *harness) step() {
	h.now++
	for _, l1 := range h.l1s {
		l1.Tick(h.now)
	}
	h.l2.Tick(h.now)
	for len(h.toL2) > 0 {
		m := h.toL2[0]
		h.toL2 = h.toL2[1:]
		h.l2.Deliver(m)
	}
	for len(h.toL1) > 0 {
		m := h.toL1[0]
		h.toL1 = h.toL1[1:]
		h.l1s[m.Dst].Deliver(m)
	}
	for len(h.dram) > 0 {
		m := h.dram[0]
		h.dram = h.dram[1:]
		switch m.Type {
		case mem.DRAMRd:
			data := &mem.Block{}
			h.store.ReadBlock(m.Block, data)
			h.l2.DRAMFill(&mem.Msg{Type: mem.DRAMFill, Block: m.Block, Data: data})
		case mem.DRAMWr:
			h.store.WriteBlock(m.Block, m.Data, m.Mask)
		}
	}
}

// stepUntil advances the clock to the given cycle.
func (h *harness) stepUntil(cycle uint64) {
	for h.now < cycle {
		h.step()
	}
}

// settle steps until quiescent (bounded).
func (h *harness) settle() {
	for i := 0; i < 100000; i++ {
		if h.l2.Pending() == 0 && len(h.toL2)+len(h.toL1)+len(h.dram) == 0 {
			idle := true
			for _, l1 := range h.l1s {
				if l1.Pending() != 0 {
					idle = false
				}
			}
			if idle {
				return
			}
		}
		h.step()
	}
	h.t.Fatal("harness did not settle")
}

type captured struct {
	res    coherence.AccessResult
	done   bool
	doneAt uint64
	c      coherence.Completion
}

// capture records a completion at cycle now. Completion.Data is only
// valid during the Done callback (the controller reuses the block), so
// it is deep-copied.
func (out *captured) capture(c coherence.Completion, now uint64) {
	out.done = true
	out.c = c
	out.doneAt = now
	if c.Data != nil {
		d := *c.Data
		out.c.Data = &d
	}
}

func (h *harness) load(sm, warp int, b mem.BlockAddr, word int) *captured {
	out := &captured{}
	req := &coherence.Request{
		Block: b, Mask: mem.WordMask(0).Set(word), Warp: warp,
		Done: func(c coherence.Completion) { out.capture(c, h.now) },
	}
	out.res = h.l1s[sm].Access(req)
	return out
}

func (h *harness) storeWord(sm, warp int, b mem.BlockAddr, word int, val uint32) *captured {
	out := &captured{}
	data := &mem.Block{}
	data.Words[word] = val
	req := &coherence.Request{
		Block: b, Store: true, Mask: mem.WordMask(0).Set(word), Data: data, Warp: warp,
		Done: func(c coherence.Completion) { out.capture(c, h.now) },
	}
	out.res = h.l1s[sm].Access(req)
	return out
}

func TestLeaseExpirySelfInvalidation(t *testing.T) {
	cfg := Config{Lease: 100}
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	h.store.WriteWord(X.WordAddr(0), 7)

	ld := h.load(0, 0, X, 0)
	h.settle()
	if !ld.done || ld.c.Data.Words[0] != 7 {
		t.Fatal("fill failed")
	}
	// Within the lease: hit.
	if h.load(0, 0, X, 0).res != coherence.Hit {
		t.Fatal("in-lease load must hit")
	}
	// Past the lease: self-invalidated, coherence miss.
	h.stepUntil(h.now + 200)
	ld3 := h.load(0, 0, X, 0)
	if ld3.res != coherence.Pending {
		t.Fatal("expired load must miss")
	}
	if h.l1s[0].Stats().MissExpired != 1 || h.l1s[0].Stats().SelfInval == 0 {
		t.Fatalf("expiry accounting wrong: %+v", h.l1s[0].Stats())
	}
	h.settle()
	if !ld3.done {
		t.Fatal("refetch failed")
	}
}

// TestStrongWriteStallsUntilExpiry: a TC-Strong write to a leased
// block is delayed until every private copy has self-invalidated, and
// reads arriving meanwhile queue behind it (§II-D3).
func TestStrongWriteStallsUntilExpiry(t *testing.T) {
	cfg := Config{Lease: 100, Weak: false}
	h := newHarness(t, 2, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)

	// SM0 takes a lease on X.
	h.load(0, 0, X, 0)
	h.settle()
	leaseEnd := h.now + cfg.Lease // upper bound on the lease L2 granted

	// SM1 writes X: must stall at L2 until the lease expires.
	st := h.storeWord(1, 0, X, 0, 0xEE)
	h.stepUntil(h.now + 10)
	if st.done {
		t.Fatal("strong write must not complete under a live lease")
	}
	// A read arriving during the stall queues behind the write.
	ld := h.load(1, 1, X, 0)
	h.stepUntil(h.now + 10)
	if ld.done {
		t.Fatal("read must queue behind the stalled write")
	}
	h.stepUntil(leaseEnd + 10)
	h.settle()
	if !st.done || !ld.done {
		t.Fatal("write and queued read must complete after expiry")
	}
	if ld.c.Data.Words[0] != 0xEE {
		t.Fatal("queued read must observe the write")
	}
	if ld.doneAt < st.doneAt {
		t.Fatal("read completed before the write it queued behind")
	}
	if h.l2.Stats().WriteStalls == 0 {
		t.Fatal("write stall cycles not counted")
	}
}

// bankRig drives one TC-Strong bank by hand: lines are installed with
// chosen leases, requests are delivered at the start of their cycle,
// and every response the bank sends is logged with its cycle.
type bankRig struct {
	l2  *L2
	now uint64
	log []rigEvent
}

type rigEvent struct {
	at    uint64
	typ   mem.MsgType
	block mem.BlockAddr
}

func newBankRig(t *testing.T, leases map[mem.BlockAddr]uint64) *bankRig {
	r := &bankRig{}
	r.l2 = NewL2(Config{Lease: 100}, 0, coherence.BankGeometry{Sets: 16, Ways: 4},
		coherence.SenderFunc(func(m *mem.Msg) bool {
			r.log = append(r.log, rigEvent{r.now, m.Type, m.Block})
			return true
		}),
		coherence.SenderFunc(func(m *mem.Msg) bool {
			t.Fatalf("unexpected DRAM traffic: %v for %v", m.Type, m.Block)
			return true
		}),
		nil)
	for b, expiry := range leases {
		line := r.l2.Array.Victim(b, nil)
		r.l2.Array.Install(line, b, nil, 0)
		line.Meta.expiry = expiry
	}
	return r
}

func (r *bankRig) request(typ mem.MsgType, b mem.BlockAddr) {
	m := &mem.Msg{Type: typ, Block: b, Mask: mem.MaskAll}
	if typ == mem.BusWr {
		m.SetData(&mem.Block{})
	}
	r.l2.Deliver(m)
}

// TestBlockedWritesResumeByExpiry pins the expiry-ordered list of a
// TC-Strong bank's blocked writes. Blocks 3 and 7 hold leases to cycle
// 150 and block 5 to cycle 120. A write to each parks (block 7's
// first), and a read and a second write queue behind block 3's write.
// Block 5 resumes at 120 while the others wait; at 150 blocks 3 and 7
// resume in block order, and block 3's queued read extends its lease to
// 250, so its second write parks again under that expiry instead of
// resuming twice in one pass. The scenario runs twice: with the bank
// ticked every cycle, and with it ticked only when a request reaches it
// or its Wake comes due, SyncClock standing in for the skipped ticks.
// Both must send the same responses on the same cycles and count one
// WriteStalls per waiting block per cycle, at every cycle.
func TestBlockedWritesResumeByExpiry(t *testing.T) {
	leases := map[mem.BlockAddr]uint64{3: 150, 7: 150, 5: 120}
	reqs := []rigEvent{
		{1, mem.BusWr, 7}, {2, mem.BusWr, 3}, {3, mem.BusRd, 3}, {4, mem.BusWr, 3}, {5, mem.BusWr, 5},
	}
	// Blocks waiting through each cycle's tick: 7 from the tick after it
	// parks (2) through 149, 3 through 149 and again, re-parked, from
	// 151 through 249, and 5 from 6 through 119.
	waiting := func(c uint64) (n uint64) {
		for _, w := range [][2]uint64{{2, 149}, {3, 149}, {151, 249}, {6, 119}} {
			if c >= w[0] && c <= w[1] {
				n++
			}
		}
		return n
	}
	want := []rigEvent{
		{120, mem.BusWrAck, 5},
		{150, mem.BusWrAck, 3}, {150, mem.BusFill, 3}, {150, mem.BusWrAck, 7},
		{250, mem.BusWrAck, 3},
	}
	const end = 300

	for _, sleep := range []bool{false, true} {
		r := newBankRig(t, leases)
		l2 := r.l2
		var stalls uint64
		ticks := 0
		wake := uint64(sched.Hot)
		for r.now < end {
			r.now++
			input := false
			for _, q := range reqs {
				if q.at == r.now {
					if sleep {
						l2.SyncClock(r.now - 1)
					}
					r.request(q.typ, q.block)
					input = true
				}
			}
			current := true
			switch {
			case !sleep || input || wake <= r.now:
				l2.Tick(r.now)
				ticks++
				wake = l2.Wake(r.now)
			case r.now%7 == 0:
				// A sync mid-sleep credits the cycles slept so far.
				l2.SyncClock(r.now)
			default:
				current = false // credited by the next tick or sync
			}
			stalls += waiting(r.now)
			if got := l2.Stats().WriteStalls; current && got != stalls {
				t.Fatalf("sleep=%v: WriteStalls %d after cycle %d, want %d", sleep, got, r.now, stalls)
			}
		}
		l2.SyncClock(end)
		if got := l2.Stats().WriteStalls; got != stalls {
			t.Fatalf("sleep=%v: WriteStalls %d at cycle %d, want %d", sleep, got, end, stalls)
		}
		if !reflect.DeepEqual(r.log, want) {
			t.Fatalf("sleep=%v: responses %v, want %v", sleep, r.log, want)
		}
		if sleep && ticks != len(reqs)+3 {
			t.Errorf("sleeping bank ticked %d times, want %d (one per request and one per due expiry: 120, 150, 250)", ticks, len(reqs)+3)
		}
		if l2.Wake(end) != sched.Never || !l2.Drained() {
			t.Errorf("sleep=%v: bank not drained at cycle %d", sleep, end)
		}
	}
}

// TestBlockedLineVanishedLatches: a blocked queue whose line is gone
// when its lease comes due latches blocked-line-vanished.
func TestBlockedLineVanishedLatches(t *testing.T) {
	r := newBankRig(t, map[mem.BlockAddr]uint64{3: 50})
	r.now = 1
	r.request(mem.BusWr, 3)
	r.l2.Tick(r.now)
	if w := r.l2.Wake(r.now); w != 50 {
		t.Fatalf("blocked write wakes at %d, want its lease expiry 50", w)
	}
	r.l2.Array.Invalidate(r.l2.Array.Lookup(3))
	for r.now < 50 {
		r.now++
		r.l2.Tick(r.now)
	}
	var pe *diag.ProtocolError
	if err := r.l2.Err(); !errors.As(err, &pe) || pe.Event != "blocked-line-vanished" {
		t.Fatalf("Err = %v, want a blocked-line-vanished protocol error", err)
	}
}

// TestWeakWriteReturnsGWCT: TC-Weak completes the write immediately
// and reports the lease expiry as the GWCT for fence accounting.
func TestWeakWriteReturnsGWCT(t *testing.T) {
	cfg := Config{Lease: 100, Weak: true}
	h := newHarness(t, 2, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)

	h.load(0, 0, X, 0) // SM0 lease
	h.settle()
	grant := h.now

	st := h.storeWord(1, 0, X, 0, 0xEE)
	h.settle()
	if !st.done {
		t.Fatal("weak write must complete immediately")
	}
	// The GWCT is the live lease's expiry: after the grant cycle, no
	// later than grant+lease.
	if st.c.GWCT < grant || st.c.GWCT > grant+cfg.Lease {
		t.Fatalf("GWCT %d out of range [%d, %d]", st.c.GWCT, grant, grant+cfg.Lease)
	}
	if h.l2.Stats().WriteStalls != 0 {
		t.Fatal("weak writes never stall")
	}
}

// TestWeakStaleReadWithinLease: after a TC-Weak write, an SM holding
// an unexpired lease keeps reading its stale copy (RC-legal) until
// self-invalidation, then fetches the new value.
func TestWeakStaleReadWithinLease(t *testing.T) {
	cfg := Config{Lease: 200, Weak: true}
	h := newHarness(t, 2, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	h.store.WriteWord(X.WordAddr(0), 1)

	h.load(0, 0, X, 0)
	h.settle()
	h.storeWord(1, 0, X, 0, 2)
	h.settle()

	stale := h.load(0, 0, X, 0)
	if stale.res != coherence.Hit || stale.c.Data.Words[0] != 1 {
		t.Fatal("in-lease read must return the stale value under TC-Weak")
	}
	h.stepUntil(h.now + 2*cfg.Lease)
	fresh := h.load(0, 0, X, 0)
	h.settle()
	if fresh.c.Data.Words[0] != 2 {
		t.Fatal("post-expiry read must see the new value")
	}
}

// TestInclusionReplacementStall: a fill into a set whose lines all
// hold live leases stalls until one expires (§II-D2's forced
// inclusion).
func TestInclusionReplacementStall(t *testing.T) {
	cfg := Config{Lease: 100}
	h := newHarness(t, 1, cfg, coherence.BankGeometry{Sets: 1, Ways: 1})
	A, B := mem.BlockAddr(1), mem.BlockAddr(2)

	h.load(0, 0, A, 0)
	h.settle()
	// B's fill cannot evict A while A's lease is live.
	ldB := h.load(0, 1, B, 0)
	h.stepUntil(h.now + 20)
	if ldB.done {
		t.Fatal("fill must stall: the only way holds a live lease")
	}
	if h.l2.Stats().EvictStalls == 0 {
		t.Fatal("eviction stall cycles not counted")
	}
	h.stepUntil(h.now + 2*cfg.Lease)
	h.settle()
	if !ldB.done {
		t.Fatal("fill must proceed once the lease expires")
	}
}

// TestResponsesAlwaysCarryData: TC has no dataless renewal — every
// read response is a full fill (one reason G-TSC saves traffic).
func TestResponsesAlwaysCarryData(t *testing.T) {
	cfg := Config{Lease: 50}
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	for i := 0; i < 3; i++ {
		h.load(0, 0, X, 0)
		h.settle()
		h.stepUntil(h.now + 200) // expire
	}
	fills := 0
	for _, m := range h.log {
		if m.Type == mem.BusRnw {
			t.Fatal("TC must not send renewals")
		}
		if m.Type == mem.BusFill {
			fills++
			if m.Data == nil {
				t.Fatal("fill without data")
			}
		}
	}
	if fills != 3 {
		t.Fatalf("expected 3 fills, saw %d", fills)
	}
}

// TestWriteToUnleasedBlockIsImmediate: strong writes only wait when a
// lease is live.
func TestWriteToUnleasedBlockIsImmediate(t *testing.T) {
	cfg := Config{Lease: 100, Weak: false}
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	st := h.storeWord(0, 0, mem.BlockAddr(9), 0, 1)
	h.settle()
	if !st.done {
		t.Fatal("write to unleased block must not stall")
	}
	if h.l2.Stats().WriteStalls != 0 {
		t.Fatal("no stall expected")
	}
}

func (h *harness) atomic(sm, warp int, b mem.BlockAddr, word int, op mem.AtomicOp, operand uint32) *captured {
	out := &captured{}
	data := &mem.Block{}
	data.Words[word] = operand
	req := &coherence.Request{
		Block: b, Atomic: true, Atom: op, Mask: mem.WordMask(0).Set(word),
		Data: data, Warp: warp,
		Done: func(c coherence.Completion) { out.capture(c, h.now) },
	}
	out.res = h.l1s[sm].Access(req)
	return out
}

// TestStrongAtomicStallsLikeWrite: under TC-Strong an atomic to a
// leased block waits for every private copy to self-invalidate.
func TestStrongAtomicStallsLikeWrite(t *testing.T) {
	cfg := Config{Lease: 100, Weak: false}
	h := newHarness(t, 2, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	h.load(0, 0, X, 0)
	h.settle()
	at := h.atomic(1, 0, X, 0, mem.AtomAdd, 3)
	h.stepUntil(h.now + 20)
	if at.done {
		t.Fatal("strong atomic must wait for the lease")
	}
	h.stepUntil(h.now + 2*cfg.Lease)
	h.settle()
	if !at.done || at.c.Data.Words[0] != 0 {
		t.Fatalf("atomic completion wrong: %+v", at)
	}
}

// TestWeakAtomicImmediateWithGWCT: under TC-Weak an atomic performs
// immediately and carries a GWCT for fence accounting.
func TestWeakAtomicImmediateWithGWCT(t *testing.T) {
	cfg := Config{Lease: 100, Weak: true}
	h := newHarness(t, 2, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	h.load(0, 0, X, 0)
	h.settle()
	at := h.atomic(1, 0, X, 0, mem.AtomAdd, 3)
	h.settle()
	if !at.done || at.c.GWCT == 0 {
		t.Fatalf("weak atomic must complete immediately with GWCT: %+v", at)
	}
}

func TestTCFlushAndDebug(t *testing.T) {
	cfg := Config{Lease: 100}
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	h.load(0, 0, 5, 0)
	h.settle()
	h.l1s[0].Flush()
	ld := h.load(0, 0, 5, 0)
	if ld.res != coherence.Pending {
		t.Fatal("post-flush load must miss")
	}
	h.settle()
	if h.l1s[0].Stats().Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestTCAtomicAggregation(t *testing.T) {
	// Two atomics to the same word from the same SM: both applied.
	cfg := Config{Lease: 50, Weak: true}
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	h.atomic(0, 0, 9, 0, mem.AtomAdd, 4)
	h.atomic(0, 1, 9, 0, mem.AtomAdd, 6)
	h.settle()
	if data, ok := h.l2.Peek(9); !ok || data.Words[0] != 10 {
		t.Fatal("atomics lost")
	}
	if h.l2.Stats().Atomics != 2 {
		t.Fatal("atomic count wrong")
	}
}

// TestFuzzStrongLinearizability: TC-Strong delays every write past all
// outstanding leases, so histories are per-location linearizable in
// physical order. Random racing loads/stores/atomics from 3 SMs must
// never violate that.
func TestFuzzStrongLinearizability(t *testing.T) {
	f := func(raw []byte) bool {
		rec := check.NewRecorder()
		h := newHarnessObs(t, 3, Config{Lease: 60, Weak: false}, rec)
		var vals uint32
		i := 0
		for i+1 < len(raw) {
			burst := int(raw[i]%4) + 1
			i++
			for b := 0; b < burst && i+1 < len(raw); b++ {
				op, arg := raw[i], raw[i+1]
				i += 2
				sm := int(op) % len(h.l1s)
				warp := int(op>>2) % 4
				block := mem.BlockAddr(1 + int(arg)%5)
				word := int(arg>>4) % 4
				switch op % 5 {
				case 0, 1:
					h.load(sm, warp, block, word)
				case 2:
					vals++
					h.storeWord(sm, warp, block, word, vals)
				case 3:
					h.atomic(sm, warp, block, word, mem.AtomAdd, uint32(arg)+1)
				default:
					h.atomic(sm, warp, block, word, mem.AtomMax, uint32(arg))
				}
			}
			h.settle()
		}
		h.settle()
		if v := check.CheckPhysical(rec.Ops(), 1); len(v) > 0 {
			t.Logf("violation: %s", v[0].Error())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// newHarnessObs builds a TC harness with an observer attached.
func newHarnessObs(t *testing.T, nSM int, cfg Config, obs coherence.Observer) *harness {
	h := &harness{t: t, store: mem.NewStore()}
	h.l2 = NewL2(cfg, 0, coherence.BankGeometry{Sets: 8, Ways: 2},
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL1 = append(h.toL1, m); return true }),
		coherence.SenderFunc(func(m *mem.Msg) bool { h.dram = append(h.dram, m); return true }),
		obs)
	for i := 0; i < nSM; i++ {
		h.l1s = append(h.l1s, NewL1(cfg, i, 1,
			coherence.L1Geometry{Sets: 4, Ways: 2, MSHRs: 4},
			coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); return true }),
			obs))
	}
	return h
}

// TestResumedWriteBlocksServiceSameTick pins the bank's tick order: a
// TC-Strong write resumed at lease expiry posts its ack before the
// head-of-line check, so when the port refuses that ack, a request
// already queued must wait for the next cycle.
func TestResumedWriteBlocksServiceSameTick(t *testing.T) {
	refuse := false
	l2 := NewL2(Config{Lease: 10}, 0, coherence.BankGeometry{Sets: 4, Ways: 2},
		coherence.SenderFunc(func(*mem.Msg) bool { return !refuse }),
		coherence.SenderFunc(func(*mem.Msg) bool { return true }), nil)
	X, Y := mem.BlockAddr(1), mem.BlockAddr(2)
	now := uint64(0)
	tick := func() { now++; l2.Tick(now) }

	// SM0 reads X and is granted a lease; SM1's write to X stalls on it.
	l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: X, Src: 0, ReqID: 1})
	tick()
	l2.DRAMFill(&mem.Msg{Type: mem.DRAMFill, Block: X, Data: &mem.Block{}})
	l2.Deliver(&mem.Msg{Type: mem.BusWr, Block: X, Src: 1, ReqID: 1, Mask: 1, Data: &mem.Block{}})
	tick()
	expiry := l2.Array.Lookup(X).Meta.expiry
	for now+1 < expiry {
		tick()
	}
	if l2.blocked.Len() != 1 {
		t.Fatal("the write must stall until the lease expires")
	}

	reads := l2.Stats().Reads
	l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: Y, Src: 0, ReqID: 2})
	refuse = true
	tick() // the write resumes; the port refuses its ack
	if l2.blocked.Len() != 0 || !l2.Blocked() {
		t.Fatal("the resumed write's refused ack must stay queued")
	}
	if got := l2.Stats().Reads; got != reads {
		t.Fatalf("a queued read was serviced behind a refused ack (reads %d -> %d)", reads, got)
	}
	refuse = false
	tick()
	if got := l2.Stats().Reads; got != reads+1 {
		t.Fatalf("the queued read must be serviced once the port accepts (reads %d -> %d)", reads, got)
	}
}
