package sim_test

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/sim"
)

// TestComponentDispatchAccounting pins the engine's bookkeeping on
// every golden and chaos row. Every run, fault-injected or not, is an
// event-engine run that skips provably quiet cycles, with executed +
// skipped run cycles equal to the simulated kernel cycles. Every
// executed event cycle makes exactly one tick-or-sleep decision per
// component, so per class ticks + sleeps = EventCycles * class size,
// and some component must actually sleep, or the dispatcher is dead
// weight. The fault shims and the rollover schedule sit on the same
// agenda, so the chaos table's correctness proof is not bought by
// quietly ticking everything.
func TestComponentDispatchAccounting(t *testing.T) {
	for _, row := range tableRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			s := sim.New(row.cfg)
			run, err := row.wl.Build(1).RunOn(s)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			eng := s.Engine()
			if mode := eng.Mode(); mode != "event" {
				t.Errorf("engine mode %q, want event", mode)
			}
			if eng.RunCycles+eng.RunSkipped != run.Cycles {
				t.Errorf("run cycles executed+skipped = %d+%d, want %d", eng.RunCycles, eng.RunSkipped, run.Cycles)
			}
			if eng.SkippedCycles() == 0 {
				t.Error("no cycle was skipped")
			}
			c := eng.Comp
			checks := []struct {
				class         string
				ticks, sleeps uint64
				size          int
			}{
				{"noc", c.NoCTicks, c.NoCSleeps, 1},
				{"dram", c.DRAMTicks, c.DRAMSleeps, len(s.Sys.Parts)},
				{"l2", c.L2Ticks, c.L2Sleeps, len(s.Sys.L2s)},
				{"l1", c.L1Ticks, c.L1Sleeps, len(s.Sys.L1s)},
			}
			for _, ch := range checks {
				want := eng.EventCycles * uint64(ch.size)
				if got := ch.ticks + ch.sleeps; got != want {
					t.Errorf("%s: ticks %d + sleeps %d = %d, want EventCycles(%d) * %d = %d",
						ch.class, ch.ticks, ch.sleeps, got, eng.EventCycles, ch.size, want)
				}
			}
			if c.HierarchySleeps() == 0 {
				t.Error("no hierarchy component ever slept; per-component dispatch bought nothing on a real workload")
			}
		})
	}
}
