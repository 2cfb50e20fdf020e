package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// harness wires G-TSC L1 controllers to one L2 bank through explicit
// message queues, with an instant-response DRAM, so protocol flows can
// be driven and inspected step by step without the full simulator.
type harness struct {
	t     *testing.T
	l1s   []*L1
	l2    *L2
	rc    *ResetController
	store *mem.Store

	toL2 []*mem.Msg
	toL1 []*mem.Msg
	dram []*mem.Msg
	now  uint64

	// log snapshots every message that crossed the "NoC". Entries are
	// copies: the controllers recycle a message once its receiver has
	// consumed it, so a retained pointer would be overwritten.
	log []*mem.Msg
}

func (h *harness) logMsg(m *mem.Msg) { h.log = append(h.log, m.Clone()) }

func newHarness(t *testing.T, nSM int, cfg Config, l2geo coherence.BankGeometry) *harness {
	h := &harness{t: t, store: mem.NewStore()}
	h.rc = NewResetController()
	if l2geo.Sets == 0 {
		l2geo = coherence.BankGeometry{Sets: 64, Ways: 8}
	}
	h.l2 = NewL2(cfg, 0, l2geo,
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL1 = append(h.toL1, m); h.logMsg(m); return true }),
		coherence.SenderFunc(func(m *mem.Msg) bool { h.dram = append(h.dram, m); return true }),
		nil)
	h.l2.AttachResets(h.rc)
	for i := 0; i < nSM; i++ {
		h.l1s = append(h.l1s, NewL1(cfg, i, 1,
			coherence.L1Geometry{Sets: 16, Ways: 4, MSHRs: 8, Warps: 8},
			coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); h.logMsg(m); return true }),
			nil))
	}
	return h
}

// pump runs the system to quiescence.
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

// captured records one access's completion. Completion.Data is only
// valid during the Done callback (the controller recycles the block),
// so capture deep-copies it.
type captured struct {
	res  coherence.AccessResult
	done bool
	c    coherence.Completion
}

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
	req := &coherence.Request{
		Block: b, Mask: mem.WordMask(0).Set(word), Warp: warp,
		Done: out.capture,
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
		Done: out.capture,
	}
	out.res = h.l1s[sm].Access(req)
	return out
}

// countMsgs counts logged messages of a type for a block.
func (h *harness) countMsgs(ty mem.MsgType, b mem.BlockAddr) int {
	n := 0
	for _, m := range h.log {
		if m.Type == ty && m.Block == b {
			n++
		}
	}
	return n
}

func TestLoadMissFillThenHit(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	h.store.WriteWord(mem.BlockAddr(5).WordAddr(3), 42)

	ld := h.load(0, 0, 5, 3)
	if ld.res != coherence.Pending {
		t.Fatal("cold load must miss")
	}
	h.pump()
	if !ld.done || ld.c.Data.Words[3] != 42 {
		t.Fatalf("load did not complete with data: %+v", ld)
	}
	// Initial lease is [mem_ts, mem_ts+lease] = [1, 11].
	if ld.c.TS != 1 {
		t.Fatalf("load ts %d, want 1", ld.c.TS)
	}

	ld2 := h.load(0, 0, 5, 3)
	if ld2.res != coherence.Hit || !ld2.done {
		t.Fatal("second load must hit synchronously")
	}
	if h.l1s[0].Stats().Hits != 1 {
		t.Fatal("hit not counted")
	}
	if got := h.countMsgs(mem.BusRd, 5); got != 1 {
		t.Fatalf("expected 1 BusRd, saw %d", got)
	}
}

// TestFig9Walkthrough drives the paper's Figure 9 example at the
// protocol level and asserts the timestamps it derives, with the
// default lease of 10: fills at [1,11], the store to Y scheduled at
// wts=12 (= Y.rts+1), the writer's warp_ts jumping to 12, and the
// subsequent re-read of X renewing its lease past 12.
func TestFig9Walkthrough(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig(), coherence.BankGeometry{})
	X, Y := mem.BlockAddr(0x10), mem.BlockAddr(0x20)

	// A1: SM0/warp0 reads X; B1: SM1/warp1 reads Y.
	a1 := h.load(0, 0, X, 0)
	b1 := h.load(1, 1, Y, 0)
	h.pump()
	if a1.c.TS != 1 || b1.c.TS != 1 {
		t.Fatalf("initial loads must carry ts=1, got %d/%d", a1.c.TS, b1.c.TS)
	}

	// A2: SM0/warp0 writes Y. Y's lease at L2 is [1,11], so the store
	// is logically scheduled at wts = 12, lease [12,22].
	a2 := h.storeWord(0, 0, Y, 0, 0xA2)
	h.pump()
	if a2.c.TS != 12 {
		t.Fatalf("ST Y wts = %d, want 12", a2.c.TS)
	}
	if got := h.l1s[0].WarpTS(0); got != 12 {
		t.Fatalf("writer warp_ts = %d, want 12", got)
	}

	// B2: SM1/warp1 writes X -> wts = X.rts+1 = 12 as well.
	b2 := h.storeWord(1, 1, X, 0, 0xB2)
	h.pump()
	if b2.c.TS != 12 {
		t.Fatalf("ST X wts = %d, want 12", b2.c.TS)
	}

	// A3: SM0/warp0 re-reads X. warp_ts=12 exceeds the cached lease
	// [1,11]; the renewal discovers X was rewritten (wts mismatch) and
	// a fill returns the new data, logically after B2.
	a3 := h.load(0, 0, X, 0)
	if a3.res != coherence.Pending {
		t.Fatal("A3 must miss on expired lease")
	}
	h.pump()
	if !a3.done || a3.c.Data.Words[0] != 0xB2 {
		t.Fatalf("A3 must observe B2's value, got %+v", a3.c)
	}
	if a3.c.TS < 12 {
		t.Fatalf("A3 ts %d must be >= 12", a3.c.TS)
	}

	// B3: SM1/warp1 re-reads Y: its own cached copy's lease [1,11]
	// has expired for warp_ts=12, the renewal finds Y rewritten by A2.
	b3 := h.load(1, 1, Y, 0)
	h.pump()
	if b3.c.Data.Words[0] != 0xA2 {
		t.Fatalf("B3 must observe A2's value")
	}
	// Timestamp order across the whole history: A1,B1 (ts1) -> A2,B2
	// (ts12) -> A3,B3 (ts>=12): exactly the paper's final order class.
}

// TestRenewalIsDataless verifies an expired lease over unchanged data
// renews without a data payload (the Fig 15 bandwidth saving).
func TestRenewalIsDataless(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X, Z := mem.BlockAddr(1), mem.BlockAddr(2)
	h.load(0, 0, X, 0)
	h.pump()
	// Advance warp 0's timestamp far past X's lease via a store to Z.
	h.storeWord(0, 0, Z, 0, 7)
	h.pump()
	ld := h.load(0, 0, X, 0)
	if ld.res != coherence.Pending {
		t.Fatal("expired load must not hit")
	}
	h.pump()
	if !ld.done {
		t.Fatal("renewal never completed")
	}
	if got := h.countMsgs(mem.BusRnw, X); got != 1 {
		t.Fatalf("expected 1 dataless renewal for X, saw %d", got)
	}
	if h.l1s[0].Stats().RenewalHits != 1 {
		t.Fatal("renewal hit not counted")
	}
	for _, m := range h.log {
		if m.Type == mem.BusRnw && m.Data != nil {
			t.Fatal("renewal response must not carry data")
		}
	}
}

// TestUpdateVisibilityOption1 reproduces Fig 10's hazard: a load to a
// line with a pending store must wait for the acknowledgment and then
// read the new value at a timestamp no earlier than the store's.
func TestUpdateVisibilityOption1(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(4)
	h.load(0, 0, X, 0)
	h.pump()

	st := h.storeWord(0, 0, X, 0, 0xCC) // lock the line; ack not yet delivered
	ld := h.load(0, 1, X, 0)            // warp 1 reads while locked
	if ld.res != coherence.Pending {
		t.Fatal("load on locked line must wait (option 1)")
	}
	if ld.done {
		t.Fatal("load must not complete before the store is acknowledged")
	}
	h.pump()
	if !st.done || !ld.done {
		t.Fatal("both must complete after the ack")
	}
	if ld.c.Data.Words[0] != 0xCC {
		t.Fatalf("waiting load must see the stored value, got %#x", ld.c.Data.Words[0])
	}
	if ld.c.TS < st.c.TS {
		t.Fatalf("load ts %d must not precede store ts %d (Fig 10 violation)", ld.c.TS, st.c.TS)
	}
	if h.l1s[0].Stats().MissLocked != 1 {
		t.Fatal("locked miss not counted")
	}
}

// TestUpdateVisibilityOption2 checks the alternative design: with
// KeepOldCopy, a reader whose warp_ts lies in the old lease reads the
// old value synchronously, logically before the pending store.
func TestUpdateVisibilityOption2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeepOldCopy = true
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(4)
	h.store.WriteWord(X.WordAddr(0), 0xAA)
	h.load(0, 0, X, 0)
	h.pump()

	st := h.storeWord(0, 0, X, 0, 0xCC)
	ld := h.load(0, 1, X, 0) // warp 1 has warp_ts=1, inside the old lease
	if ld.res != coherence.Hit || !ld.done {
		t.Fatal("option 2 must serve the old copy synchronously")
	}
	if ld.c.Data.Words[0] != 0xAA {
		t.Fatalf("old value expected, got %#x", ld.c.Data.Words[0])
	}
	h.pump()
	if !st.done {
		t.Fatal("store must complete")
	}
	if ld.c.TS >= st.c.TS {
		t.Fatalf("old-copy read (ts %d) must be ordered before the store (ts %d)", ld.c.TS, st.c.TS)
	}
	// After the ack, readers see the new value.
	ld2 := h.load(0, 1, X, 0)
	h.pump()
	if ld2.c.Data.Words[0] != 0xCC {
		t.Fatal("post-ack read must see the new value")
	}
}

// TestRequestCombining: concurrent reads of one block send a single
// BusRd; a waiter whose warp_ts exceeds the granted lease triggers one
// renewal when the fill lands (§V-B).
func TestRequestCombining(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X, Z := mem.BlockAddr(6), mem.BlockAddr(7)
	// Advance warp 1 beyond the initial lease window.
	h.storeWord(0, 1, Z, 0, 1)
	h.pump()
	warp1TS := h.l1s[0].WarpTS(1)
	if warp1TS <= DefaultConfig().Lease+1 {
		t.Fatalf("warp 1 ts %d not advanced enough for the test", warp1TS)
	}

	ld0 := h.load(0, 0, X, 0) // sends BusRd (warp_ts 1)
	ld1 := h.load(0, 1, X, 0) // merges; fill's lease won't cover it
	if ld0.res != coherence.Pending || ld1.res != coherence.Pending {
		t.Fatal("both must be pending")
	}
	if h.l1s[0].Stats().MSHRMerges != 1 {
		t.Fatal("second load must merge in the MSHR")
	}
	h.pump()
	if !ld0.done || !ld1.done {
		t.Fatal("both loads must complete")
	}
	// One initial read plus one renewal for the uncovered waiter.
	if got := h.countMsgs(mem.BusRd, X); got != 2 {
		t.Fatalf("expected 2 requests for X (read + renewal), saw %d", got)
	}
}

// TestForwardAllAblation: with ForwardAll every reader sends its own
// request (the §V-B traffic increase).
func TestForwardAllAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ForwardAll = true
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(6)
	h.load(0, 0, X, 0)
	h.load(0, 1, X, 0)
	h.load(0, 2, X, 0)
	h.pump()
	if got := h.countMsgs(mem.BusRd, X); got != 3 {
		t.Fatalf("forward-all should send 3 requests, saw %d", got)
	}
}

// TestStaleBaseStore: when an SM stores to a line whose base version
// is stale (another SM wrote meanwhile), the acknowledgment returns
// the authoritative merged block so the L1 copy ends up coherent.
func TestStaleBaseStore(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(9)
	h.store.WriteWord(X.WordAddr(0), 1)
	h.store.WriteWord(X.WordAddr(1), 2)

	// Both SMs cache X.
	h.load(0, 0, X, 0)
	h.load(1, 0, X, 0)
	h.pump()

	// SM1 rewrites word 1.
	h.storeWord(1, 0, X, 1, 0x22)
	h.pump()

	// SM0 stores word 0 from its stale base.
	h.storeWord(0, 0, X, 0, 0x11)
	h.pump()

	// SM0's next read (same warp, whose ts advanced with the store)
	// must see both its own word and SM1's word.
	ld0 := h.load(0, 0, X, 0)
	ld1 := h.load(0, 0, X, 1)
	h.pump()
	if ld0.c.Data.Words[0] != 0x11 {
		t.Fatalf("own store lost: %#x", ld0.c.Data.Words[0])
	}
	if ld1.c.Data.Words[1] != 0x22 {
		t.Fatalf("remote store lost in local copy: %#x (stale base not corrected)", ld1.c.Data.Words[1])
	}
}

// TestWriteNoAllocate: a store to an uncached block does not install a
// line (GPU L1s are write-no-allocate).
func TestWriteNoAllocate(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(3)
	st := h.storeWord(0, 0, X, 0, 5)
	h.pump()
	if !st.done {
		t.Fatal("store must complete")
	}
	// A subsequent load must miss (nothing was installed).
	ld := h.load(0, 0, X, 0)
	if ld.res != coherence.Pending {
		t.Fatal("load after no-allocate store must miss")
	}
	h.pump()
	if ld.c.Data.Words[0] != 5 {
		t.Fatal("value must come back from L2")
	}
}

// TestNonInclusiveEviction: evicting an L2 line folds its rts into
// mem_ts; a store to the refetched block is scheduled after it without
// any stall (§V-C).
func TestNonInclusiveEviction(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{Sets: 1, Ways: 1})
	A, B := mem.BlockAddr(1), mem.BlockAddr(2)

	h.load(0, 0, A, 0) // A lease [1,11]
	h.pump()
	h.load(0, 1, B, 0) // evicts A; mem_ts = max(1, 11) = 11
	h.pump()
	if got := h.l2.MemTS(); got != 11 {
		t.Fatalf("mem_ts = %d, want 11", got)
	}
	// Store to A refetches it; its lease starts at mem_ts, so the
	// store's wts must exceed the evicted lease (ordering preserved
	// with no write stall).
	st := h.storeWord(0, 0, A, 0, 9)
	h.pump()
	if !st.done {
		t.Fatal("store must complete without stalling")
	}
	if st.c.TS <= 11 {
		t.Fatalf("store ts %d must order after the evicted lease (11)", st.c.TS)
	}
	if h.l2.Stats().WriteStalls != 0 || h.l2.Stats().EvictStalls != 0 {
		t.Fatal("G-TSC must never stall on writes or evictions")
	}
}

// TestTimestampOverflowReset exercises §V-D end to end with a tiny
// width: timestamps wrap, the L2s reset, the L1 flushes and adopts the
// new epoch, and subsequent operations stay correct.
func TestTimestampOverflowReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSBits = 6 // tsMax = 63
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	X := mem.BlockAddr(11)

	// Each store advances the block's wts by lease+1; a handful of
	// stores overflow 6 bits.
	for i := 0; i < 8; i++ {
		st := h.storeWord(0, 0, X, 0, uint32(i))
		ld := h.load(0, 0, X, 0)
		h.pump()
		if !st.done || !ld.done {
			t.Fatalf("iteration %d stuck", i)
		}
		if ld.c.Data.Words[0] != uint32(i) {
			t.Fatalf("iteration %d: read %d", i, ld.c.Data.Words[0])
		}
	}
	if h.rc.Resets() == 0 {
		t.Fatal("expected at least one overflow reset")
	}
	if h.l1s[0].Stats().Flushes == 0 {
		t.Fatal("L1 must flush on reset")
	}
	if h.l2.Stats().TSResets == 0 {
		t.Fatal("L2 reset not counted")
	}
}

// TestLeaseTooLargeRejected: the config guard rejects leases the reset
// protocol cannot recover from — as a typed error from Validate, not a
// panic — and fillDefaults clamps the lease so a controller built from
// the unvalidated config still makes progress.
func TestLeaseTooLargeRejected(t *testing.T) {
	cfg := Config{Lease: 60000, TSBits: 16}
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected a config error for oversized lease")
	}
	cfg.fillDefaults()
	if limit := (cfg.tsMax() - 3) / 2; cfg.Lease > limit || cfg.MaxLease > limit {
		t.Fatalf("fillDefaults left lease %d / maxLease %d above workable limit %d",
			cfg.Lease, cfg.MaxLease, limit)
	}
}

// TestWarpTimestampMonotone: a warp's timestamp never regresses within
// an epoch, across loads, stores and renewals.
func TestWarpTimestampMonotone(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	var last uint64
	blocks := []mem.BlockAddr{1, 2, 3}
	for i := 0; i < 12; i++ {
		b := blocks[i%len(blocks)]
		if i%3 == 2 {
			h.storeWord(0, 0, b, 0, uint32(i))
		} else {
			h.load(0, 0, b, 0)
		}
		h.pump()
		ts := h.l1s[0].WarpTS(0)
		if ts < last {
			t.Fatalf("warp_ts regressed: %d after %d", ts, last)
		}
		last = ts
	}
}

func (h *harness) atomic(sm, warp int, b mem.BlockAddr, word int, op mem.AtomicOp, operand uint32) *captured {
	out := &captured{}
	data := &mem.Block{}
	data.Words[word] = operand
	req := &coherence.Request{
		Block: b, Atomic: true, Atom: op, Mask: mem.WordMask(0).Set(word),
		Data: data, Warp: warp,
		Done: out.capture,
	}
	out.res = h.l1s[sm].Access(req)
	return out
}

// TestAtomicAddSerializesAtL2: concurrent atomic adds from two SMs
// both land, and each observes a pre-update value consistent with an
// indivisible read-modify-write.
func TestAtomicAddSerializesAtL2(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(7)
	h.store.WriteWord(X.WordAddr(0), 100)

	a := h.atomic(0, 0, X, 0, mem.AtomAdd, 5)
	b := h.atomic(1, 0, X, 0, mem.AtomAdd, 7)
	h.pump()
	if !a.done || !b.done {
		t.Fatal("atomics must complete")
	}
	olds := []uint32{a.c.Data.Words[0], b.c.Data.Words[0]}
	// One of them saw 100, the other saw 100+other's operand.
	if !(olds[0] == 100 && olds[1] == 105) && !(olds[0] == 107 && olds[1] == 100) {
		t.Fatalf("old values %v not a serialization of {+5,+7} from 100", olds)
	}
	// Final value reflects both.
	ld := h.load(0, 1, X, 0)
	h.pump()
	if ld.c.Data.Words[0] != 112 {
		t.Fatalf("final value %d, want 112", ld.c.Data.Words[0])
	}
	if h.l2.Stats().Atomics != 2 {
		t.Fatal("atomic count wrong")
	}
}

// TestAtomicAdvancesWarpTS: the atomic's write half gives the issuing
// warp a timestamp after every outstanding lease, like a store.
func TestAtomicAdvancesWarpTS(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(7)
	h.load(0, 0, X, 0) // lease [1,11]
	h.pump()
	at := h.atomic(0, 0, X, 0, mem.AtomMax, 3)
	h.pump()
	if at.c.TS != 12 {
		t.Fatalf("atomic ts %d, want 12 (rts+1)", at.c.TS)
	}
	if h.l1s[0].WarpTS(0) != 12 {
		t.Fatalf("warp_ts %d, want 12", h.l1s[0].WarpTS(0))
	}
}

// TestAtomicMinMax: the value semantics of the other two kinds.
func TestAtomicMinMax(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(8)
	h.store.WriteWord(X.WordAddr(2), 50)

	a := h.atomic(0, 0, X, 2, mem.AtomMin, 30)
	h.pump()
	if a.c.Data.Words[2] != 50 {
		t.Fatalf("min old = %d, want 50", a.c.Data.Words[2])
	}
	b := h.atomic(0, 0, X, 2, mem.AtomMax, 90)
	h.pump()
	if b.c.Data.Words[2] != 30 {
		t.Fatalf("max old = %d, want 30 (after min)", b.c.Data.Words[2])
	}
	ld := h.load(0, 0, X, 2)
	h.pump()
	if ld.c.Data.Words[2] != 90 {
		t.Fatalf("final = %d, want 90", ld.c.Data.Words[2])
	}
}

func TestDebugStrings(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	// Park a load behind a pending store so the MSHR has content.
	h.load(0, 0, 3, 0)
	h.pump()
	h.storeWord(0, 0, 3, 0, 1)
	h.load(0, 1, 3, 0)
	s1 := h.l1s[0].DebugString()
	if s1 == "" || h.l2.DebugString() == "" {
		t.Fatal("debug strings empty")
	}
	h.pump()
}

// TestDumpDetailSorted: the failure-dump detail of an L1 and a bank
// lists outstanding misses in block order and in-flight stores in
// request order, so the same failing run prints the same dump.
func TestDumpDetailSorted(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	blocks := []mem.BlockAddr{40, 8, 24, 16}
	for i, b := range blocks {
		h.load(0, i, b, 0)           // request IDs 1, 3, 5, 7
		h.storeWord(0, i, b+1, 0, 1) // request IDs 2, 4, 6, 8
		h.l2.Deliver(&mem.Msg{Type: mem.BusRd, Block: b, ReqID: uint64(i)})
	}
	for range blocks {
		h.now++
		h.l2.Tick(h.now)
	}
	slices.Sort(blocks)
	var mshrs, stores, misses []string
	for i, b := range blocks {
		mshrs = append(mshrs, fmt.Sprintf("mshr %v ", b))
		stores = append(stores, fmt.Sprintf("store req=%d ", 2*i+2))
		misses = append(misses, fmt.Sprintf("miss %v ", b))
	}
	inOrder := func(detail string, keys []string) {
		t.Helper()
		last := -1
		for _, k := range keys {
			i := strings.Index(detail, k)
			if i <= last {
				t.Fatalf("detail does not list %q in order:\n%s", k, detail)
			}
			last = i
		}
	}
	l1 := h.l1s[0].DumpState().Detail
	inOrder(l1, mshrs)
	inOrder(l1, stores)
	inOrder(h.l2.DumpState().Detail, misses)
}

func TestAdaptiveLeaseGrowsAndShrinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AdaptiveLease = true
	h := newHarness(t, 1, cfg, coherence.BankGeometry{})
	X, Z := mem.BlockAddr(1), mem.BlockAddr(2)

	// Read X, then advance the warp past its lease via stores to Z and
	// renew: each same-version renewal doubles X's lease.
	h.load(0, 0, X, 0)
	h.pump()
	renewalsBefore := h.countMsgs(mem.BusRd, X)
	for i := 0; i < 6; i++ {
		h.storeWord(0, 0, Z, 0, uint32(i))
		h.pump()
		h.load(0, 0, X, 0)
		h.pump()
	}
	renewals := h.countMsgs(mem.BusRd, X) - renewalsBefore
	// With doubling leases the later reads hit without renewal: far
	// fewer than 6 renewal requests.
	if renewals >= 6 {
		t.Fatalf("adaptive lease did not reduce renewals: %d", renewals)
	}
	// A write to X demotes its lease again (no crash, still correct).
	st := h.storeWord(0, 0, X, 0, 99)
	h.pump()
	if !st.done {
		t.Fatal("store must complete")
	}
	ld := h.load(0, 0, X, 0)
	h.pump()
	if ld.c.Data.Words[0] != 99 {
		t.Fatal("value lost after demotion")
	}
}

// TestMSHRFullRejects: when every MSHR entry is taken, further misses
// are rejected and the LDST unit must retry.
func TestMSHRFullRejects(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	// Geometry gives 8 MSHRs; occupy them with distinct block misses.
	for i := 0; i < 8; i++ {
		if res := h.load(0, 0, mem.BlockAddr(0x100+i), 0).res; res != coherence.Pending {
			t.Fatalf("miss %d should be pending, got %v", i, res)
		}
	}
	rej := h.load(0, 1, mem.BlockAddr(0x200), 0)
	if rej.res != coherence.Reject {
		t.Fatalf("9th miss must be rejected, got %v", rej.res)
	}
	if h.l1s[0].Stats().MSHRStalls != 1 {
		t.Fatal("MSHR stall not counted")
	}
	h.pump()
	// After draining, the same access succeeds.
	again := h.load(0, 1, mem.BlockAddr(0x200), 0)
	if again.res != coherence.Pending {
		t.Fatal("retry after drain must be accepted")
	}
	h.pump()
	if !again.done {
		t.Fatal("retried access must complete")
	}
}

// TestWriteAckStaleDataMask: a store ack with data only appears when
// the base version was stale; a clean single store gets a dataless ack.
func TestWriteAckStaleDataMask(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	X := mem.BlockAddr(4)
	h.load(0, 0, X, 0)
	h.pump()
	h.storeWord(0, 0, X, 0, 1)
	h.pump()
	for _, m := range h.log {
		if m.Type == mem.BusWrAck && m.Data != nil {
			t.Fatal("clean store must not receive data in its ack")
		}
	}
}

// TestOldEpochRequestGetsReset: a request stamped with a pre-reset
// epoch is answered with a reset-flagged fill regardless of its
// (stale, huge) warp timestamp — §V-D's "responds to every request
// with timestamp with a large value with a fill response".
func TestOldEpochRequestGetsReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TSBits = 6 // tsMax = 63
	h := newHarness(t, 2, cfg, coherence.BankGeometry{})
	X, Z := mem.BlockAddr(1), mem.BlockAddr(2)

	// SM1 touches X so it is resident at L2.
	h.load(1, 0, X, 0)
	h.pump()

	// SM0 drives timestamps into overflow via stores to Z.
	for i := 0; i < 8; i++ {
		h.storeWord(0, 0, Z, 0, uint32(i))
		h.pump()
	}
	if h.rc.Resets() == 0 {
		t.Fatal("expected a reset")
	}
	// SM1 never saw a response since the reset: its epoch is stale.
	// Reading its cached X may legally hit locally (the data is still
	// the current version), so force an L2 interaction: a store, whose
	// acknowledgment carries the new epoch and triggers the flush.
	st := h.storeWord(1, 0, X, 0, 0x51)
	h.pump()
	if !st.done {
		t.Fatal("stale-epoch store never completed")
	}
	if h.l1s[1].Stats().Flushes == 0 {
		t.Fatal("stale L1 must flush on learning of the reset")
	}
	// And its post-flush reads see current data at sane timestamps.
	ld := h.load(1, 0, X, 0)
	h.pump()
	if !ld.done || ld.c.Data.Words[0] != 0x51 {
		t.Fatalf("post-reset read wrong: %+v", ld.c)
	}
}

// TestBypassFillWhenAllWaysLocked: a fill arriving when every way of
// its set is locked by pending stores completes waiters directly from
// the message payload without caching.
func TestBypassFillWhenAllWaysLocked(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig(), coherence.BankGeometry{})
	// L1 geometry: 16 sets x 4 ways. Occupy all 4 ways of set 0 with
	// locked lines: load then store (ack withheld by not pumping).
	setStride := mem.BlockAddr(16)
	var blocks []mem.BlockAddr
	for i := 0; i < 4; i++ {
		b := mem.BlockAddr(16) + setStride*mem.BlockAddr(i) // set 0
		blocks = append(blocks, b)
		h.load(0, 0, b, 0)
	}
	h.pump()
	// Lock all four lines with pending stores, without pumping.
	var stores []*captured
	for _, b := range blocks {
		stores = append(stores, h.storeWord(0, 0, b, 0, 7))
	}
	// A load to a fifth block of the same set must bypass-fill.
	fifth := mem.BlockAddr(16) + setStride*4
	h.store.WriteWord(fifth.WordAddr(0), 0xBEEF)
	ld := h.load(0, 1, fifth, 0)
	h.pump()
	if !ld.done || ld.c.Data.Words[0] != 0xBEEF {
		t.Fatalf("bypass fill failed: %+v", ld)
	}
	for i, st := range stores {
		if !st.done {
			t.Fatalf("store %d never completed", i)
		}
	}
}
