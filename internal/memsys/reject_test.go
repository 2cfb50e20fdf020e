package memsys

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// TestRejectedPresentationCountsOneStall pins the reject half of the
// coherence.L1 contract on every L1: a rejected presentation counts one
// MSHRStalls and changes no other counter and no state, and until a
// Deliver the same access is rejected again, the same way. The LDST
// unit parks a rejected head on this (gpu's quiesce.go).
func TestRejectedPresentationCountsOneStall(t *testing.T) {
	load := func(b mem.BlockAddr) *coherence.Request {
		return &coherence.Request{Block: b, Mask: 1, Done: func(coherence.Completion) {}}
	}
	store := func(b mem.BlockAddr) *coherence.Request {
		return &coherence.Request{Block: b, Store: true, Mask: 1, Data: &mem.Block{}, Done: func(coherence.Completion) {}}
	}
	digest := func(l1 coherence.L1) string {
		var b bytes.Buffer
		l1.DigestState(&b)
		return b.String()
	}
	// full has loads to blocks 1 and 2 outstanding, which fills SM 0's
	// two-entry MSHR, and returns a load to block 9, which it rejects.
	full := func(t *testing.T, s *System) *coherence.Request {
		for b := mem.BlockAddr(1); b <= 2; b++ {
			if r := s.L1s[0].Access(load(b)); r != coherence.Pending {
				t.Fatalf("load to block %d: %v, want pending", b, r)
			}
		}
		return load(9)
	}
	cases := []struct {
		name  string
		proto Protocol
		// reject drives SM 0's L1 until it rejects the returned access.
		reject func(t *testing.T, s *System) *coherence.Request
	}{
		{"gtsc-miss", GTSC, full},
		{"gtsc-locked", GTSC, func(t *testing.T, s *System) *coherence.Request {
			// A load to a line locked by its own in-flight store parks
			// behind the store's ack, or is rejected with the MSHR full.
			done := false
			s.L1s[0].Access(&coherence.Request{Block: 9, Mask: 1, Done: func(coherence.Completion) { done = true }})
			for now := uint64(1); !done && now < 10_000; now++ {
				s.Tick(now)
			}
			s.L1s[0].Access(store(9))
			if d := digest(s.L1s[0]); !strings.Contains(d, " hit=true ") {
				t.Fatalf("the store to block 9 locked no line:\n%s", d)
			}
			return full(t, s)
		}},
		{"tc", TC, full},
		{"dir", DIR, full},
		{"l1nc", L1NC, full},
		{"bl-limit", BL, func(t *testing.T, s *System) *coherence.Request {
			// The bypass rejects any access at its outstanding limit.
			for s.L1s[0].Access(load(mem.BlockAddr(100+s.L1s[0].Pending()))) == coherence.Pending {
			}
			return store(9)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.proto)
			cfg.L1MSHRs = 2
			s := New(cfg, mem.NewStore(), nil)
			req := tc.reject(t, s)
			l1 := s.L1s[0]
			for i := 1; i <= 2; i++ {
				want, state := *l1.Stats(), digest(l1)
				want.MSHRStalls++
				if r := l1.Access(req); r != coherence.Reject {
					t.Fatalf("presentation %d: %v, want reject", i, r)
				}
				if got := *l1.Stats(); got != want {
					t.Errorf("presentation %d: counters\n %+v\nwant one more MSHR stall only:\n %+v", i, got, want)
				}
				if got := digest(l1); got != state {
					t.Errorf("presentation %d changed the state from\n%s\nto\n%s", i, state, got)
				}
			}
		})
	}
}
