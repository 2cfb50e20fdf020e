package sim

import (
	"errors"
	"math"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
)

// TestBudgetSemanticsUnified pins the cycle-budget contract shared by
// the run and drain phases: a phase executes at most MaxCycles cycles,
// and the budget check fires before the cycle that would exceed it.
// The run and drain loops historically used two different comparisons
// (`s.now-start > MaxCycles` vs `guard > MaxCycles`) which both let a
// phase run one cycle past the budget; both now route through
// budgetExhausted with explicit >= semantics.
func TestBudgetSemanticsUnified(t *testing.T) {
	s := New(DefaultConfig())
	max := s.Cfg.MaxCycles
	for _, tc := range []struct {
		elapsed uint64
		want    bool
	}{
		{0, false},
		{max - 1, false},
		{max, true},
		{max + 1, true},
	} {
		if got := s.budgetExhausted(tc.elapsed); got != tc.want {
			t.Errorf("budgetExhausted(%d) = %v, want %v (MaxCycles %d)", tc.elapsed, got, tc.want, max)
		}
	}
}

// TestRunPhaseBudgetAbortsExactlyAtMaxCycles wedges the machine (every
// NoC injection rejected), sets a watchdog window that never fires so
// only the hard budget applies, and asserts the run phase aborts after executing
// exactly MaxCycles cycles — not MaxCycles+1.
func TestRunPhaseBudgetAbortsExactlyAtMaxCycles(t *testing.T) {
	cfg := smallConfig(memsys.GTSC, gpu.RC)
	cfg.Mem.Fault = fault.Config{Seed: 7, RejectProb: 1.0}
	cfg.WatchdogWindow = math.MaxUint64
	cfg.MaxCycles = 1_000
	_, err := New(cfg).Run(writeReadKernel(0x50000))
	if err == nil {
		t.Fatal("wedged run completed")
	}
	var de *diag.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %T: %v", err, err)
	}
	if de.Phase != "run" || de.Reason != "max-cycles" {
		t.Fatalf("phase/reason = %q/%q, want run/max-cycles", de.Phase, de.Reason)
	}
	if de.Cycle != cfg.MaxCycles {
		t.Fatalf("aborted at cycle %d, want exactly MaxCycles = %d", de.Cycle, cfg.MaxCycles)
	}
}
