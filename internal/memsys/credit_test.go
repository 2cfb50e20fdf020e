package memsys

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// TestCreditRejectsMatchesPresentations pins the reject half of the
// coherence.L1 contract on every L1: while no Deliver reaches it, a
// rejected access stays rejected and changes only counters, so k
// presentations of it and one presentation plus CreditRejects(k-1)
// must leave equal Stats and equal DigestState. The LDST unit parks a
// rejected head on this (gpu's quiesce.go): a change to what a
// rejected presentation counts must change the credit with it.
func TestCreditRejectsMatchesPresentations(t *testing.T) {
	const k = 5
	load := func(b mem.BlockAddr) *coherence.Request {
		return &coherence.Request{Block: b, Mask: 1, Done: func(coherence.Completion) {}}
	}
	store := func(b mem.BlockAddr) *coherence.Request {
		return &coherence.Request{Block: b, Store: true, Mask: 1, Data: &mem.Block{}, Done: func(coherence.Completion) {}}
	}
	// fillMSHRs has loads to blocks 1..n outstanding: an MSHR of n
	// entries is full, and a load to another block is rejected.
	fillMSHRs := func(t *testing.T, s *System, n int) {
		for b := 1; b <= n; b++ {
			if r := s.L1s[0].Access(load(mem.BlockAddr(b))); r != coherence.Pending {
				t.Fatalf("load to block %d: %v, want pending", b, r)
			}
		}
	}
	cases := []struct {
		name  string
		proto Protocol
		// reject drives SM 0's L1 to where it rejects the returned
		// access.
		reject func(t *testing.T, s *System) *coherence.Request
	}{
		{"gtsc-miss", GTSC, func(t *testing.T, s *System) *coherence.Request {
			fillMSHRs(t, s, 2)
			return load(9)
		}},
		{"gtsc-locked", GTSC, func(t *testing.T, s *System) *coherence.Request {
			// A load to a line locked by its own in-flight store parks
			// behind the store's ack, or is rejected with the MSHR full.
			done := false
			s.L1s[0].Access(&coherence.Request{Block: 9, Mask: 1, Done: func(coherence.Completion) { done = true }})
			for now := uint64(1); !done; now++ {
				if now > 10_000 {
					t.Fatal("the fill of block 9 never arrived")
				}
				s.Tick(now)
			}
			s.L1s[0].Access(store(9))
			var digest bytes.Buffer
			s.L1s[0].DigestState(&digest)
			if !strings.Contains(digest.String(), " hit=true ") {
				t.Fatalf("the store to block 9 locked no line:\n%s", digest.String())
			}
			fillMSHRs(t, s, 2)
			return load(9)
		}},
		{"tc", TC, func(t *testing.T, s *System) *coherence.Request {
			fillMSHRs(t, s, 2)
			return load(9)
		}},
		{"dir", DIR, func(t *testing.T, s *System) *coherence.Request {
			fillMSHRs(t, s, 2)
			return load(9)
		}},
		{"l1nc", L1NC, func(t *testing.T, s *System) *coherence.Request {
			fillMSHRs(t, s, 2)
			return load(9)
		}},
		{"bl-limit", BL, func(t *testing.T, s *System) *coherence.Request {
			// The bypass rejects any access at its outstanding limit.
			for s.L1s[0].Access(load(mem.BlockAddr(100+s.L1s[0].Pending()))) == coherence.Pending {
			}
			return store(9)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(credit bool) (stats.L1Stats, string) {
				cfg := smallConfig(tc.proto)
				cfg.L1MSHRs = 2
				s := New(cfg, mem.NewStore(), nil)
				req := tc.reject(t, s)
				l1 := s.L1s[0]
				before := *l1.Stats()
				presentations := k
				if credit {
					presentations = 1
				}
				for i := 0; i < presentations; i++ {
					if r := l1.Access(req); r != coherence.Reject {
						t.Fatalf("presentation %d: %v, want reject", i+1, r)
					}
				}
				if credit {
					l1.CreditRejects(req, k-1)
				}
				if got := l1.Stats().MSHRStalls - before.MSHRStalls; got != k {
					t.Fatalf("%d MSHR stalls counted for %d rejected presentations", got, k)
				}
				var digest bytes.Buffer
				l1.DigestState(&digest)
				return *l1.Stats(), digest.String()
			}
			presented, presentedDigest := run(false)
			credited, creditedDigest := run(true)
			if presented != credited {
				t.Errorf("counters after %d presentations:\n %+v\nafter one and a credit of %d:\n %+v", k, presented, k-1, credited)
			}
			if presentedDigest != creditedDigest {
				t.Errorf("state after %d presentations:\n%s\nafter one and a credit of %d:\n%s", k, presentedDigest, k-1, creditedDigest)
			}
		})
	}
}
