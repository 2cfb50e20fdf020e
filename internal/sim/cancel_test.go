package sim_test

import (
	"context"
	"errors"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/diag"
)

// TestCancellationSuspendsAndResumes pins the graceful-shutdown
// contract end to end: canceling the context mid-kernel surfaces a
// typed *diag.CanceledError carrying the suspension coordinate, the
// machine stays paused (nothing is torn down), and resuming with a
// live context completes the run bit-identically to the golden
// uninterrupted fingerprint — cancellation is pure suspension, not a
// different execution.
func TestCancellationSuspendsAndResumes(t *testing.T) {
	row := goldenTable(t)[0]

	// Advance to somewhere inside the run, then hit it with an
	// already-canceled context: the engine must suspend at its next
	// poll point instead of completing.
	pause := 1 + row.cycles/2
	e := checkpoint.NewExecution(row.cfg, row.wl.Build(1), row.wl.Name, 1)
	if _, paused, err := e.RunUntil(context.Background(), pause); err != nil || !paused {
		t.Fatalf("run to pause cycle %d: paused=%v err=%v", pause, paused, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Run(ctx)
	var ce *diag.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("canceled run returned %v, want *diag.CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("CanceledError does not unwrap to context.Canceled")
	}
	if ce.Kernel == "" || ce.Phase == "" {
		t.Errorf("suspension coordinate incomplete: %+v", ce)
	}
	if ce.Cycle < pause {
		t.Errorf("suspended at cycle %d, before the already-reached cycle %d", ce.Cycle, pause)
	}
	if !e.Sim().Paused() && e.Sim().KernelsDone() == 0 {
		t.Error("machine torn down by cancellation instead of suspended")
	}

	// The suspension is checkpointable like any other pause.
	if ck := e.Checkpoint(); ck.Cycle != ce.Cycle {
		t.Errorf("checkpoint cycle %d != suspension cycle %d", ck.Cycle, ce.Cycle)
	}

	// Resume with a live context: the run completes as if never touched.
	run, err := e.Run(context.Background())
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	if got := fingerprint(run); got != row.hash {
		t.Errorf("post-cancellation fingerprint %#x != golden %#x", got, row.hash)
	}
}
