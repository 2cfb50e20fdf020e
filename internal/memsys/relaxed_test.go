package memsys

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// sharedDigest renders the shared side of s: the NoC, every DRAM
// partition, and every L2 bank with its clock and LRU stamps.
func sharedDigest(s *System) string {
	var b bytes.Buffer
	s.Net.DigestState(&b)
	for _, p := range s.Parts {
		p.DigestState(&b)
	}
	for i, l2 := range s.L2s {
		digestController(&b, "l2", i, l2)
	}
	return b.String()
}

// TestRelaxedExchangeMatchesExactOrder drives the same L1 accesses
// through relaxed epochs — the SM domains run each epoch's window, then
// RelaxedExchange replays the shared side — and through the exact
// per-cycle order (System.Tick, then the cycle's accesses). In the
// first two cases every access misses in the L2, so each bank enqueues
// a DRAM read and goes quiescent, and each fill lands after a quiet
// stretch of the DRAM latency. In the TC-Strong case a store reaches a
// block another SM has leased and waits at the bank until the lease
// expires, across several exchange windows, with a load queued behind
// it; the bank sleeps until the expiry. After every window the replay
// must leave the NoC, the partitions and the banks exactly as the exact
// order does, write-stall counts included: a read issued a cycle late
// shows in the partition, a fill installed with a stale bank clock
// shows in the LRU stamps and, under TC, in the lease it grants, and a
// lease wait resumed late shows in the blocked queues.
func TestRelaxedExchangeMatchesExactOrder(t *testing.T) {
	type access struct {
		at    uint64
		sm    int
		addr  mem.Addr
		store bool
	}
	// Blocks 160 and 192 map to bank 0, 161 to bank 1; the second read
	// at bank 0 queues behind the first at the partition.
	misses := []access{{2, 0, 0x5000, false}, {2, 1, 0x5080, false}, {30, 1, 0x6000, false}}
	const window = 600

	for _, tc := range []struct {
		name     string
		proto    Protocol
		strong   bool
		epoch    uint64
		accesses []access
	}{
		{"G-TSC load miss", GTSC, false, window, misses},
		{"TC-RC miss", TC, false, window, misses},
		// Block 224 maps to bank 0: SM 0's load takes a lease at the
		// fill, SM 1's store arrives during the miss and blocks once the
		// block installs, and SM 1's load queues behind it.
		{"TC-SC blocked write", TC, true, 64, []access{{2, 0, 0x7000, false}, {30, 1, 0x7000, true}, {260, 1, 0x7000, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.proto)
			cfg.TC.Weak = !tc.strong
			if tc.strong {
				// A lease wait shorter than the window, spanning epochs.
				cfg.TC.Lease = 100
			}
			issue := func(s *System, a access) {
				req := &coherence.Request{Block: a.addr.Block(), Mask: mem.WordMask(0).Set(a.addr.WordIndex()),
					Done: func(coherence.Completion) {}}
				if a.store {
					req.Store, req.Data = true, &mem.Block{}
				}
				if res := s.L1s[a.sm].Access(req); res != coherence.Pending {
					t.Fatalf("access %+v: %v, want it pending", a, res)
				}
			}

			exact := New(cfg, mem.NewStore(), nil)
			relaxed := New(cfg, mem.NewStore(), nil)
			relaxed.RefreshWakes(0, true)
			relaxed.RelaxedBegin()
			var stalls uint64
			for from := uint64(0); from < window; from += tc.epoch {
				to := min(from+tc.epoch, window)
				for c := from + 1; c <= to; c++ {
					exact.Tick(c)
					for _, a := range tc.accesses {
						if a.at == c {
							issue(exact, a)
						}
					}
				}
				for sm := range relaxed.L1s {
					for c := from + 1; c <= to; c++ {
						relaxed.RelaxedTickL1(sm, c)
						for _, a := range tc.accesses {
							if a.at == c && a.sm == sm {
								issue(relaxed, a)
							}
						}
					}
				}
				relaxed.RelaxedExchange(from, to, &DispatchStats{})

				got, want := sharedDigest(relaxed), sharedDigest(exact)
				if got != want {
					g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
					for i := range min(len(g), len(w)) {
						if g[i] != w[i] {
							t.Fatalf("window (%d, %d]: shared side diverged at digest line %d:\nrelaxed %s\nexact   %s", from, to, i, g[i], w[i])
						}
					}
					t.Fatalf("window (%d, %d]: shared side diverged: %d relaxed vs %d exact digest lines", from, to, len(g), len(w))
				}
				for i := range exact.L2s {
					if got, want := *relaxed.L2s[i].Stats(), *exact.L2s[i].Stats(); got != want {
						t.Fatalf("window (%d, %d]: bank %d counters %+v, exact order %+v", from, to, i, got, want)
					}
				}
				stalls = exact.L2s[0].Stats().WriteStalls
			}
			relaxed.RelaxedEnd()

			if n := exact.Pending(); n != 0 {
				t.Fatalf("window too short: %d messages still in flight", n)
			}
			if tc.strong && stalls == 0 {
				t.Fatal("the store never waited for the lease; the case is vacuous")
			}
		})
	}
}
