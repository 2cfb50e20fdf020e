package memsys

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

func smallConfig(p Protocol) Config {
	cfg := DefaultConfig()
	cfg.Protocol = p
	cfg.NumSMs = 2
	cfg.NumBanks = 2
	cfg.L1Sets = 8
	cfg.L1Ways = 2
	cfg.L1MSHRs = 4
	cfg.L2Sets = 16
	cfg.L2Ways = 2
	return cfg
}

func TestBuildAllProtocols(t *testing.T) {
	for _, p := range []Protocol{GTSC, TC, BL, L1NC} {
		store := mem.NewStore()
		s := New(smallConfig(p), store, nil)
		if len(s.L1s) != 2 || len(s.L2s) != 2 || len(s.Parts) != 2 {
			t.Fatalf("%v: component counts wrong", p)
		}
		if p == GTSC && s.Resets == nil {
			t.Fatal("G-TSC needs a reset controller")
		}
		if s.Pending() != 0 {
			t.Fatal("fresh system must be idle")
		}
	}
}

// TestEndToEndAccess drives one load through the full hierarchy for
// every protocol: L1 -> NoC -> L2 -> DRAM -> back.
func TestEndToEndAccess(t *testing.T) {
	for _, p := range []Protocol{GTSC, TC, BL, L1NC} {
		store := mem.NewStore()
		addr := mem.Addr(0x5000)
		store.WriteWord(addr, 99)
		s := New(smallConfig(p), store, nil)

		var got *uint32
		res := s.L1s[0].Access(&coherence.Request{
			Block: addr.Block(), Mask: mem.WordMask(0).Set(addr.WordIndex()), Warp: 0,
			Done: func(c coherence.Completion) {
				v := c.Data.Words[addr.WordIndex()]
				got = &v
			},
		})
		if res != coherence.Pending {
			t.Fatalf("%v: cold access should be pending", p)
		}
		for cyc := uint64(1); cyc < 5000 && got == nil; cyc++ {
			s.Tick(cyc)
		}
		if got == nil || *got != 99 {
			t.Fatalf("%v: load did not return 99 (got %v)", p, got)
		}
		if s.Pending() != 0 {
			t.Fatalf("%v: system did not drain", p)
		}
	}
}

func TestReadWordPrefersL2(t *testing.T) {
	store := mem.NewStore()
	s := New(smallConfig(GTSC), store, nil)
	addr := mem.Addr(0x100)
	// Not cached anywhere: falls back to the backing store.
	store.WriteWord(addr, 7)
	if s.ReadWord(addr) != 7 {
		t.Fatal("fallback read failed")
	}
	// Write through the hierarchy; the dirty copy lives in L2 only.
	done := false
	data := &mem.Block{}
	data.Words[addr.WordIndex()] = 8
	s.L1s[0].Access(&coherence.Request{
		Block: addr.Block(), Store: true, Mask: mem.WordMask(0).Set(addr.WordIndex()),
		Data: data, Warp: 0,
		Done: func(coherence.Completion) { done = true },
	})
	for cyc := uint64(1); cyc < 5000 && !done; cyc++ {
		s.Tick(cyc)
	}
	if !done {
		t.Fatal("store never completed")
	}
	if store.ReadWord(addr) == 8 {
		t.Fatal("test premise broken: value already written back")
	}
	if s.ReadWord(addr) != 8 {
		t.Fatal("ReadWord must see the L2 copy")
	}
}

func TestProtocolStrings(t *testing.T) {
	names := map[Protocol]string{GTSC: "G-TSC", TC: "TC", BL: "BL", L1NC: "BL-w/L1"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("%d: %q", p, p.String())
		}
	}
	if Protocol(99).String() != "?" {
		t.Fatal("unknown protocol name")
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := smallConfig(GTSC)
	cfg.Protocol = Protocol(42)
	New(cfg, mem.NewStore(), nil)
}

// TestRelaxedBankSendMeetsBackpressure: under relaxed sync a bank ticks
// on the master at its true cycle and sends straight into the NoC, so a
// full toL1 port refuses its response, which waits in the bank — the
// same backpressure the exact engine applies — instead of being
// captured in an epoch buffer the port never limits.
func TestRelaxedBankSendMeetsBackpressure(t *testing.T) {
	s := New(smallConfig(BL), mem.NewStore(), nil)
	blk := mem.Addr(0x100).Block()
	bank := int(uint64(blk) % uint64(s.Cfg.NumBanks))
	// A first load makes the block resident, so the bank answers the
	// next read on its first tick.
	done := false
	s.L1s[0].Access(&coherence.Request{Block: blk, Mask: mem.WordMask(0).Set(0),
		Done: func(coherence.Completion) { done = true }})
	cyc := uint64(1)
	for ; cyc < 5000 && !done; cyc++ {
		s.Tick(cyc)
	}
	if !done || s.Pending() != 0 {
		t.Fatal("warm-up load did not complete")
	}

	s.RelaxedBegin()
	for s.Net.SendToL1(&mem.Msg{Type: mem.BusFill, Src: bank}) {
	}
	l2 := s.L2s[bank]
	req := l2.Pool().Msg()
	req.Type, req.Block, req.Src, req.Mask = mem.BusRd, blk, 0, mem.WordMask(0).Set(0)
	l2.Deliver(req)
	l2.Tick(cyc)
	if s.relaxPending() != 0 || l2.Quiescent() {
		t.Fatalf("bank send accepted past a full toL1 port: %d relaxed message(s) pending, bank quiescent %v",
			s.relaxPending(), l2.Quiescent())
	}
}
