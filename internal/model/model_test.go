package model

import (
	"testing"
	"time"

	"github.com/gtsc-sim/gtsc/internal/core"
	"github.com/gtsc-sim/gtsc/internal/tc"
)

// mp is the message-passing litmus shape: SM0 publishes data then a
// flag; SM1 polls in the opposite order. It is the smallest program
// that distinguishes a coherent machine from a racy one.
func mpProgram() [][][]Op {
	return [][][]Op{
		{{St(0, 0, 1), St(1, 0, 1)}},
		{{Ld(1, 0), Ld(0, 0)}},
	}
}

// mp22 adds a second warp per SM contending on block 0, so warp
// interleaving *within* an SM and cross-SM races are both explored.
// With Lease 6 at TSBits 6 the second store to block 0 pushes the
// lease extension past tsMax, firing the natural §V-D overflow reset
// inside the explored space.
func mp22Program() [][][]Op {
	return [][][]Op{
		{{St(0, 0, 1), St(1, 0, 1)}, {St(0, 1, 3)}},
		{{Ld(1, 0), Ld(0, 0)}, {Ld(0, 1)}},
	}
}

// renewal has SM0 reload block 0 between its own stores to block 1,
// while SM1 writes block 0 once. A reload whose lease ran out with no
// write in between renews the same version, the one event that grows
// an adaptive lease. mp22 never renews a block without an intervening
// write, so under AdaptiveLease it explores plain G-TSC's space.
func renewalProgram() [][][]Op {
	return [][][]Op{
		{{Ld(0, 0), St(1, 0, 1), Ld(0, 0), St(1, 0, 2), Ld(0, 0)}},
		{{St(0, 0, 5)}, {Ld(1, 0)}},
	}
}

// TestExhaustive enumerates every reachable interleaving of the micro
// machine for all four protocols, checking the full invariant set on
// every edge. The G-TSC configs are sized so the §V-D overflow reset
// fires inside the explored space three different ways: forced at
// every reachable point (mp-forced), by natural timestamp exhaustion
// (mp22-natural), and repeatedly against a 2-bit wire epoch tag
// (narrow-epoch, which exercises the bound-decode in
// core/tswrap.go through three back-to-back resets). The selectable
// knobs have rows of their own: ForwardAll on mp22, and AdaptiveLease
// on renewal, with a MaxLease small enough to leave the stressed start
// room for a reset. The mp22-adaptive row is the only mp22 row from
// the power-on start: at 6 bits the default adaptive ceiling (30)
// clamps InitTS back to the power-on value, so it sees no reset, and
// it explores exactly plain G-TSC's space from that start. KeepOldCopy
// has no row: mp22 never loads on the storing SM, so it explores
// exactly the natural row's space.
//
// Each case pins its exact state, edge and final-state counts, so a
// change that alters any reachable micro-state fails by name. A change
// that deliberately alters the explored space updates them, with the
// reason, as golden rows are regenerated.
func TestExhaustive(t *testing.T) {
	cases := []struct {
		name      string
		cfg       Config
		minResets uint64 // require at least this many §V-D resets observed
		minEpoch  uint64 // require the epoch counter to get this far
		states    int    // exact distinct canonical states
		edges     int    // exact productive transitions
		final     int    // exact distinct completed-run states
	}{
		{"gtsc-mp-forced", Config{Protocol: GTSC, NumBanks: 2, Program: mpProgram(),
			GTSC: core.Config{TSBits: 6, Lease: 4, InitTS: ^uint64(0)}, ForcedResets: 2},
			2, 2, 1520, 2876, 76},
		{"gtsc-mp22-natural", Config{Protocol: GTSC, NumBanks: 2, Program: mp22Program(),
			GTSC: core.Config{TSBits: 6, Lease: 6, InitTS: ^uint64(0)}, MaxStates: 2_000_000},
			1, 1, 13465, 37256, 54},
		{"gtsc-mp22-forwardall", Config{Protocol: GTSC, NumBanks: 2, Program: mp22Program(),
			GTSC: core.Config{TSBits: 6, Lease: 6, InitTS: ^uint64(0), ForwardAll: true}, MaxStates: 2_000_000},
			1, 1, 18216, 49378, 226},
		{"gtsc-mp22-adaptive", Config{Protocol: GTSC, NumBanks: 2, Program: mp22Program(),
			GTSC: core.Config{TSBits: 6, Lease: 6, InitTS: ^uint64(0), AdaptiveLease: true}, MaxStates: 2_000_000},
			0, 0, 8774, 25772, 15},
		{"gtsc-renewal-adaptive", Config{Protocol: GTSC, NumBanks: 2, Program: renewalProgram(),
			GTSC: core.Config{TSBits: 6, Lease: 4, MaxLease: 6, InitTS: ^uint64(0), AdaptiveLease: true}, MaxStates: 2_000_000},
			1, 1, 2324, 5203, 22},
		{"gtsc-narrow-epoch", Config{Protocol: GTSC, NumBanks: 2, Program: mpProgram(),
			GTSC: core.Config{TSBits: 6, Lease: 4, EpochBits: 2}, ForcedResets: 3,
			GateResets: true, MaxStates: 2_000_000},
			3, 3, 2200, 3279, 140},
		{"tc-mp", Config{Protocol: TCStrong, NumBanks: 2, Program: mpProgram(),
			TC: tc.Config{Lease: 30}},
			0, 0, 229, 367, 7},
		{"tc-mp22", Config{Protocol: TCStrong, NumBanks: 2, Program: mp22Program(),
			TC: tc.Config{Lease: 30}, MaxStates: 2_000_000},
			0, 0, 13725, 35222, 70},
		{"dir-mp22", Config{Protocol: DIR, NumBanks: 2, Program: mp22Program(),
			MaxStates: 2_000_000},
			0, 0, 6657, 17509, 19},
		{"bl-mp22", Config{Protocol: BL, NumBanks: 2, Program: mp22Program()},
			0, 0, 10770, 31917, 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			res, err := Explore(c.cfg)
			if err != nil {
				t.Fatalf("exhaustive exploration found a violation: %v", err)
			}
			t.Logf("%v in %v", res, time.Since(start))
			if res.Resets < c.minResets {
				t.Errorf("observed %d §V-D resets, want >= %d (the reset paths went unexplored)",
					res.Resets, c.minResets)
			}
			if res.MaxEpoch < c.minEpoch {
				t.Errorf("reached epoch %d, want >= %d", res.MaxEpoch, c.minEpoch)
			}
			if res.States != c.states || res.Edges != c.edges || res.FinalStates != c.final {
				t.Errorf("explored %d states, %d edges, %d final; want exactly %d/%d/%d (a reachable micro-state changed)",
					res.States, res.Edges, res.FinalStates, c.states, c.edges, c.final)
			}
		})
	}
}
