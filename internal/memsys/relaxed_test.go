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
// through one relaxed epoch — the SM domains run the whole window,
// then RelaxedExchange replays the shared side — and through the exact
// per-cycle order (System.Tick, then the cycle's accesses). Every
// access misses in the L2, so each bank enqueues a DRAM read and goes
// quiescent, and each fill lands after a quiet stretch of the DRAM
// latency. The replay must leave the NoC, the partitions and the banks
// exactly as the exact order does: a read issued a cycle late shows in
// the partition, and a fill installed with a stale bank clock shows in
// the LRU stamps and, under TC, in the lease it grants.
func TestRelaxedExchangeMatchesExactOrder(t *testing.T) {
	type access struct {
		at   uint64
		sm   int
		addr mem.Addr
	}
	// Blocks 160 and 192 map to bank 0, 161 to bank 1; the second read
	// at bank 0 queues behind the first at the partition.
	accesses := []access{{2, 0, 0x5000}, {2, 1, 0x5080}, {30, 1, 0x6000}}
	const window = 600

	for _, tc := range []struct {
		name  string
		proto Protocol
	}{{"G-TSC load miss", GTSC}, {"TC-RC miss", TC}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.proto)
			cfg.TC.Weak = true
			issue := func(s *System, a access) {
				req := &coherence.Request{Block: a.addr.Block(), Mask: mem.WordMask(0).Set(a.addr.WordIndex()),
					Done: func(coherence.Completion) {}}
				if res := s.L1s[a.sm].Access(req); res != coherence.Pending {
					t.Fatalf("access %+v: %v, want a miss", a, res)
				}
			}

			exact := New(cfg, mem.NewStore(), nil)
			for c := uint64(1); c <= window; c++ {
				exact.Tick(c)
				for _, a := range accesses {
					if a.at == c {
						issue(exact, a)
					}
				}
			}

			relaxed := New(cfg, mem.NewStore(), nil)
			relaxed.RefreshWakes(0, true)
			relaxed.RelaxedBegin()
			for sm := range relaxed.L1s {
				for c := uint64(1); c <= window; c++ {
					relaxed.RelaxedTickL1(sm, c)
					for _, a := range accesses {
						if a.at == c && a.sm == sm {
							issue(relaxed, a)
						}
					}
				}
			}
			relaxed.RelaxedExchange(0, window, &DispatchStats{})
			relaxed.RelaxedEnd()

			if n := exact.Pending(); n != 0 {
				t.Fatalf("window too short: %d messages still in flight", n)
			}
			got, want := sharedDigest(relaxed), sharedDigest(exact)
			if got != want {
				g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
				for i := range min(len(g), len(w)) {
					if g[i] != w[i] {
						t.Fatalf("shared side diverged at digest line %d:\nrelaxed %s\nexact   %s", i, g[i], w[i])
					}
				}
				t.Fatalf("shared side diverged: %d relaxed vs %d exact digest lines", len(g), len(w))
			}
		})
	}
}
