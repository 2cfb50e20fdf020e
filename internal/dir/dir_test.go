package dir

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// harness wires directory L1s to one directory bank with explicit
// queues and instant DRAM.
type harness struct {
	t     *testing.T
	l1s   []*L1
	l2    *L2
	store *mem.Store
	toL2  []*mem.Msg
	toL1  []*mem.Msg
	dram  []*mem.Msg
	now   uint64
	log   []*mem.Msg
}

func newHarness(t *testing.T, nSM int, l2geo coherence.BankGeometry) *harness {
	h := &harness{t: t, store: mem.NewStore()}
	if l2geo.Sets == 0 {
		l2geo = coherence.BankGeometry{Sets: 64, Ways: 8}
	}
	h.l2 = NewL2(0, l2geo,
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL1 = append(h.toL1, m); h.log = append(h.log, m.Clone()); return true }),
		coherence.SenderFunc(func(m *mem.Msg) bool { h.dram = append(h.dram, m); return true }),
		nil)
	for i := 0; i < nSM; i++ {
		h.l1s = append(h.l1s, NewL1(i, 1,
			coherence.L1Geometry{Sets: 16, Ways: 4, MSHRs: 8},
			coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); h.log = append(h.log, m.Clone()); return true }),
			nil))
	}
	return h
}

func (h *harness) pump() {
	for i := 0; i < 100000; i++ {
		h.now++
		for _, l1 := range h.l1s {
			l1.Tick(h.now)
		}
		h.l2.Tick(h.now)
		progress := false
		for len(h.toL2) > 0 {
			m := h.toL2[0]
			h.toL2 = h.toL2[1:]
			h.l2.Deliver(m)
			progress = true
		}
		for len(h.toL1) > 0 {
			m := h.toL1[0]
			h.toL1 = h.toL1[1:]
			h.l1s[m.Dst].Deliver(m)
			progress = true
		}
		for len(h.dram) > 0 {
			m := h.dram[0]
			h.dram = h.dram[1:]
			progress = true
			switch m.Type {
			case mem.DRAMRd:
				data := &mem.Block{}
				h.store.ReadBlock(m.Block, data)
				h.l2.DRAMFill(&mem.Msg{Type: mem.DRAMFill, Block: m.Block, Data: data})
			case mem.DRAMWr:
				h.store.WriteBlock(m.Block, m.Data, m.Mask)
			}
		}
		if !progress && h.l2.Pending() == 0 {
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
	}
	h.t.Fatal("harness did not quiesce")
}

type captured struct {
	res  coherence.AccessResult
	done bool
	c    coherence.Completion
}

// capture records a completion. Completion.Data is only valid during
// the Done callback (the controller reuses the block), so it is
// deep-copied.
func (out *captured) capture(c coherence.Completion) {
	out.done = true
	out.c = c
	if c.Data != nil {
		d := *c.Data
		out.c.Data = &d
	}
}

func (h *harness) load(sm, warp int, b mem.BlockAddr, word int) *captured {
	out := &captured{}
	out.res = h.l1s[sm].Access(&coherence.Request{
		Block: b, Mask: mem.WordMask(0).Set(word), Warp: warp,
		Done: out.capture,
	})
	return out
}

func (h *harness) storeWord(sm, warp int, b mem.BlockAddr, word int, val uint32) *captured {
	out := &captured{}
	data := &mem.Block{}
	data.Words[word] = val
	out.res = h.l1s[sm].Access(&coherence.Request{
		Block: b, Store: true, Mask: mem.WordMask(0).Set(word), Data: data, Warp: warp,
		Done: out.capture,
	})
	return out
}

func (h *harness) count(ty mem.MsgType) int {
	n := 0
	for _, m := range h.log {
		if m.Type == ty {
			n++
		}
	}
	return n
}

func TestExclusiveGrantAndSilentUpgrade(t *testing.T) {
	h := newHarness(t, 2, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	h.store.WriteWord(X.WordAddr(0), 9)

	ld := h.load(0, 0, X, 0)
	h.pump()
	if !ld.done || ld.c.Data.Words[0] != 9 {
		t.Fatal("fill failed")
	}
	// Sole reader got E: the following store upgrades silently (no
	// GetM on the wire).
	st := h.storeWord(0, 0, X, 0, 10)
	if st.res != coherence.Hit || !st.done {
		t.Fatal("store to E must complete locally")
	}
	if h.count(mem.BusGetM) != 0 {
		t.Fatal("silent E->M upgrade must not send GetM")
	}
	// Local re-read sees the new value without traffic.
	ld2 := h.load(0, 0, X, 0)
	if ld2.res != coherence.Hit || ld2.c.Data.Words[0] != 10 {
		t.Fatal("local M read failed")
	}
}

func TestSharersThenInvalidation(t *testing.T) {
	h := newHarness(t, 3, coherence.BankGeometry{})
	X := mem.BlockAddr(5)
	h.store.WriteWord(X.WordAddr(0), 1)

	// Two readers share.
	h.load(0, 0, X, 0)
	h.pump()
	h.load(1, 0, X, 0)
	h.pump()

	// SM2 writes: both copies must be invalidated before the grant.
	st := h.storeWord(2, 0, X, 0, 2)
	h.pump()
	if !st.done {
		t.Fatal("store never granted")
	}
	if got := h.count(mem.BusInv); got < 2 {
		t.Fatalf("expected >= 2 invalidations, saw %d", got)
	}
	// The old sharers' next loads miss and see the new value.
	for sm := 0; sm < 2; sm++ {
		ld := h.load(sm, 0, X, 0)
		if ld.res == coherence.Hit {
			t.Fatalf("sm%d stale copy survived invalidation", sm)
		}
		h.pump()
		if ld.c.Data.Words[0] != 2 {
			t.Fatalf("sm%d read %d, want 2", sm, ld.c.Data.Words[0])
		}
	}
}

func TestOwnerDowngradeOnRead(t *testing.T) {
	h := newHarness(t, 2, coherence.BankGeometry{})
	X := mem.BlockAddr(7)

	// SM0 writes (M).
	h.storeWord(0, 0, X, 0, 42)
	h.pump()
	// SM1 reads: SM0 downgrades, data flows through the L2.
	ld := h.load(1, 0, X, 0)
	h.pump()
	if !ld.done || ld.c.Data.Words[0] != 42 {
		t.Fatalf("reader got %+v, want 42", ld.c)
	}
	// SM0 still has a readable S copy (no extra traffic on re-read).
	before := len(h.log)
	ld0 := h.load(0, 0, X, 0)
	if ld0.res != coherence.Hit || ld0.c.Data.Words[0] != 42 {
		t.Fatal("downgraded owner lost its S copy")
	}
	if len(h.log) != before {
		t.Fatal("S re-read generated traffic")
	}
}

func TestWritebackRace(t *testing.T) {
	// SM0 dirties a block, evicts it (WB in flight pattern), then SM1
	// writes: the directory must not lose SM0's data.
	h := newHarness(t, 2, coherence.BankGeometry{})
	X := mem.BlockAddr(3)
	h.storeWord(0, 0, X, 1, 0x11) // word 1 dirty at SM0
	h.pump()

	// Force SM0 to evict X by filling its 4-way set (same L1 set:
	// stride = l1 sets = 16).
	for i := 1; i <= 4; i++ {
		h.load(0, 0, X+mem.BlockAddr(16*i), 0)
		h.pump()
	}
	// SM1 writes word 2; after everything settles both words coexist.
	h.storeWord(1, 0, X, 2, 0x22)
	h.pump()
	ld1 := h.load(0, 1, X, 1)
	h.pump()
	ld2 := h.load(0, 1, X, 2)
	h.pump()
	if ld1.c.Data.Words[1] != 0x11 {
		t.Fatalf("evicted dirty word lost: %#x", ld1.c.Data.Words[1])
	}
	if ld2.c.Data.Words[2] != 0x22 {
		t.Fatalf("second writer's word lost: %#x", ld2.c.Data.Words[2])
	}
}

// TestInvalidationVsWritebackRace stages the FIFO-ordered race the
// fault-injection harness first exposed: the owner evicts a dirty
// block (BusWB in flight), the directory — still listing it as owner —
// targets it for another SM's GetM, and the eviction's writeback
// reaches the bank before the wb-in-flight-flagged invalidation ack
// (same L1->L2 FIFO pair, writeback sent first). The writeback itself
// must complete the invalidation target, or the transaction waits
// forever for data it already consumed.
func TestInvalidationVsWritebackRace(t *testing.T) {
	h := newHarness(t, 2, coherence.BankGeometry{})
	X := mem.BlockAddr(3)
	h.storeWord(0, 0, X, 1, 0x11)
	h.pump() // SM0 owns X in M, word 1 dirty

	// SM0 evicts X; hold the BusWB on the wire.
	h.l1s[0].evict(h.l1s[0].array.Lookup(X))
	if len(h.toL2) != 1 || h.toL2[0].Type != mem.BusWB {
		t.Fatalf("expected a held BusWB, have %v", h.toL2)
	}
	wb := h.toL2[0]
	h.toL2 = nil

	// SM1's store reaches the directory first: it still thinks SM0 owns
	// X, so it goes busy and targets SM0 with an invalidation.
	st := h.storeWord(1, 0, X, 2, 0x22)
	h.l2.Deliver(h.toL2[0])
	h.toL2 = nil
	h.now++
	h.l2.Tick(h.now)
	if len(h.toL1) != 1 || h.toL1[0].Type != mem.BusInv || h.toL1[0].Dst != 0 {
		t.Fatalf("expected BusInv to SM0, have %v", h.toL1)
	}

	// SM0 answers the invalidation with the wb-in-flight flag.
	h.l1s[0].Deliver(h.toL1[0])
	h.toL1 = nil
	if len(h.toL2) != 1 || h.toL2[0].Type != mem.BusInvAck || !h.toL2[0].Reset {
		t.Fatalf("expected a wb-in-flight InvAck, have %v", h.toL2)
	}
	ack := h.toL2[0]
	h.toL2 = nil

	// FIFO delivery: the writeback lands before the ack.
	h.l2.Deliver(wb)
	h.l2.Deliver(ack)
	h.pump() // deadlocks here ("did not quiesce") without the onWB fix

	if !st.done {
		t.Fatal("store never granted")
	}
	ld1 := h.load(1, 1, X, 1)
	if ld1.res != coherence.Hit || ld1.c.Data.Words[1] != 0x11 {
		t.Fatalf("writeback data lost: %+v", ld1.c)
	}
	ld2 := h.load(0, 1, X, 2)
	h.pump()
	if ld2.c.Data.Words[2] != 0x22 {
		t.Fatalf("second writer's word lost: %#x", ld2.c.Data.Words[2])
	}
}

func TestInclusionRecall(t *testing.T) {
	// A 1-set/1-way L2: installing a second block must recall the
	// first block's L1 copy.
	h := newHarness(t, 1, coherence.BankGeometry{Sets: 1, Ways: 1})
	A, B := mem.BlockAddr(1), mem.BlockAddr(2)
	h.load(0, 0, A, 0)
	h.pump()
	ldB := h.load(0, 1, B, 0)
	h.pump()
	if !ldB.done {
		t.Fatal("install after recall failed")
	}
	if h.l2.Stats().Recalls == 0 {
		t.Fatal("recall not counted")
	}
	// A's copy at the L1 must be gone (inclusion).
	ldA := h.load(0, 0, A, 0)
	if ldA.res == coherence.Hit {
		t.Fatal("L1 copy survived the recall: inclusion violated")
	}
	h.pump()
}

func TestAtomicRecallsAllCopies(t *testing.T) {
	h := newHarness(t, 3, coherence.BankGeometry{})
	X := mem.BlockAddr(9)
	h.store.WriteWord(X.WordAddr(0), 100)
	h.load(0, 0, X, 0)
	h.pump()
	h.load(1, 0, X, 0)
	h.pump()

	out := &captured{}
	data := &mem.Block{}
	data.Words[0] = 5
	h.l1s[2].Access(&coherence.Request{
		Block: X, Atomic: true, Atom: mem.AtomAdd, Mask: 1, Data: data, Warp: 0,
		Done: out.capture,
	})
	h.pump()
	if !out.done || out.c.Data.Words[0] != 100 {
		t.Fatalf("atomic old value wrong: %+v", out.c)
	}
	// Old sharers must not see stale data.
	ld := h.load(0, 1, X, 0)
	if ld.res == coherence.Hit {
		t.Fatal("stale copy survived atomic recall")
	}
	h.pump()
	if ld.c.Data.Words[0] != 105 {
		t.Fatalf("post-atomic read %d, want 105", ld.c.Data.Words[0])
	}
}

func TestFlushWritesBackDirty(t *testing.T) {
	h := newHarness(t, 1, coherence.BankGeometry{})
	X := mem.BlockAddr(4)
	h.storeWord(0, 0, X, 0, 77)
	h.pump()
	h.l1s[0].Flush()
	h.pump()
	if data, ok := h.l2.Peek(X); !ok || data.Words[0] != 77 {
		t.Fatal("flush lost dirty data")
	}
	if h.l1s[0].Stats().Writebacks == 0 {
		t.Fatal("writeback not counted")
	}
}

// TestRetriedFillBlocksServiceSameTick pins the bank's tick order: a
// stalled fill retried at the top of Tick can evict a dirty victim,
// and when the DRAM port refuses that writeback, a request already
// queued must wait for the next cycle.
func TestRetriedFillBlocksServiceSameTick(t *testing.T) {
	refuseDRAM := false
	l2 := NewL2(0, coherence.BankGeometry{Sets: 1, Ways: 1},
		coherence.SenderFunc(func(*mem.Msg) bool { return true }),
		coherence.SenderFunc(func(*mem.Msg) bool { return !refuseDRAM }), nil)
	A, B, C := mem.BlockAddr(0), mem.BlockAddr(1), mem.BlockAddr(2)
	now := uint64(0)
	tick := func() { now++; l2.Tick(now) }
	fill := func(b mem.BlockAddr) { l2.DRAMFill(&mem.Msg{Type: mem.DRAMFill, Block: b, Data: &mem.Block{}}) }

	// SM0 takes A exclusive; SM1's read of B needs A's only way, so
	// B's fill stalls and recalls SM0's copy.
	l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: A, Src: 0, ReqID: 1})
	tick()
	fill(A)
	l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: B, Src: 1, ReqID: 1})
	tick()
	fill(B)
	if l2.Quiescent() {
		t.Fatal("B's fill must stall on A's live copy")
	}
	// SM0 answers the recall with its dirty copy: A becomes a dirty
	// victim with no copies.
	l2.Deliver(&mem.Msg{Type: mem.BusWB, Block: A, Src: 0, Mask: mem.MaskAll, Data: &mem.Block{}})
	tick()

	reads := l2.Stats().Reads
	l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: C, Src: 1, ReqID: 2})
	refuseDRAM = true
	tick() // the retry installs B over A; the port refuses A's writeback
	if _, ok := l2.Peek(B); !ok || !l2.Blocked() {
		t.Fatal("the retried fill must install and its refused writeback stay queued")
	}
	if got := l2.Stats().Reads; got != reads {
		t.Fatalf("a queued read was serviced behind a refused writeback (reads %d -> %d)", reads, got)
	}
	refuseDRAM = false
	tick()
	if got := l2.Stats().Reads; got != reads+1 {
		t.Fatalf("the queued read must be serviced once the port accepts (reads %d -> %d)", reads, got)
	}
}

// TestRejectedLoadCountsOneMiss pins that a load the full MSHR rejects
// counts no miss until it is accepted: each reject counts an MSHR
// stall, and the accepted retry counts its one miss.
func TestRejectedLoadCountsOneMiss(t *testing.T) {
	h := newHarness(t, 1, coherence.BankGeometry{})
	h.l1s[0] = NewL1(0, 1, coherence.L1Geometry{Sets: 16, Ways: 4, MSHRs: 1},
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); return true }), nil)
	A, B := mem.BlockAddr(0x10), mem.BlockAddr(0x20)
	a := h.load(0, 0, A, 0)
	for i := 0; i < 2; i++ {
		if r := h.load(0, 1, B, 0); r.res != coherence.Reject {
			t.Fatalf("load of B with A's miss in the only MSHR entry: %v, want Reject", r.res)
		}
	}
	h.pump()
	b := h.load(0, 1, B, 0)
	h.pump()
	if !a.done || !b.done {
		t.Fatal("both loads must complete")
	}
	st := h.l1s[0].Stats()
	if st.MSHRStalls != 2 || st.MissCold != 2 || st.MissLocked != 0 {
		t.Fatalf("MSHRStalls=%d MissCold=%d MissLocked=%d, want 2, 2 (A and B once each), 0",
			st.MSHRStalls, st.MissCold, st.MissLocked)
	}
}
