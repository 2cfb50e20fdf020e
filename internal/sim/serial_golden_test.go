package sim_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// serialExecution runs a workload instance's kernels back to back in
// serial tick order (sim.Simulator.SerialRunUntil). It pauses by
// workload.Execution's rules — once the global clock reaches the stop
// cycle, inside a kernel or at a kernel boundary — and runs the
// workload's verifier once every kernel has completed.
type serialExecution struct {
	s    *sim.Simulator
	inst *workload.Instance
	agg  *stats.Run
}

func newSerialExecution(cfg sim.Config, inst *workload.Instance) *serialExecution {
	return &serialExecution{s: sim.New(cfg), inst: inst}
}

// runUntil advances the execution until it completes or the global
// clock reaches stopAt (0 = run to completion).
func (e *serialExecution) runUntil(stopAt uint64) (*stats.Run, bool, error) {
	for {
		if !e.s.Paused() && e.s.KernelsDone() == len(e.inst.Kernels) {
			if e.inst.Verify != nil {
				if err := e.inst.Verify(e.s.ReadWord); err != nil {
					return e.agg, false, fmt.Errorf("workload verification failed: %w", err)
				}
			}
			return e.agg, false, nil
		}
		if stopAt != 0 && e.s.Now() >= stopAt {
			return nil, true, nil
		}
		run, paused, err := e.s.SerialRunUntil(e.inst.Kernels[e.s.KernelsDone()], stopAt)
		if err != nil || paused {
			return nil, paused, err
		}
		if e.agg == nil {
			e.agg = run
		} else {
			e.agg.Accumulate(run)
		}
	}
}

// TestSerialTickTableEquivalence runs every golden and chaos row in
// serial tick order — every component ticked on every cycle, none
// skipped or asleep — and on the event engine, each with an operation
// recorder attached. Both runs must reproduce the table (so observing
// a run never perturbs it), and both must deliver the identical
// operation sequence: DESIGN.md §7's claim, agenda dispatch ≡ serial
// tick order, checked op by op. The serial run also pins the reference
// the wake property tests step against.
func TestSerialTickTableEquivalence(t *testing.T) {
	for _, row := range tableRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cfg := row.cfg
			serialRec, eventRec := check.NewRecorder(), check.NewRecorder()
			cfg.Observer = serialRec
			run, _, err := newSerialExecution(cfg, row.wl.Build(1)).runUntil(0)
			if err != nil {
				t.Fatalf("serial run failed: %v", err)
			}
			checkRun(t, run, row)
			cfg.Observer = eventRec
			if run, err = row.wl.Build(1).Run(cfg); err != nil {
				t.Fatalf("event engine run failed: %v", err)
			}
			checkRun(t, run, row)
			a, b := serialRec.Ops(), eventRec.Ops()
			for i := range min(len(a), len(b)) {
				if a[i] != b[i] {
					t.Fatalf("operation %d: serial tick order %+v, event engine %+v", i, a[i], b[i])
				}
			}
			if len(a) != len(b) {
				t.Errorf("serial tick order recorded %d operations, event engine %d", len(a), len(b))
			}
		})
	}
}

// TestPausedStateMatchesSerialTick compares whole machine states, not
// final counters: every golden and chaos row is paused at a fuzzed
// cycle on the event engine (through workload.Execution) and in serial
// tick order, and the two state digests — cycle, kernels and phase on
// the first line, then the complete canonical state, fault RNG and
// held messages included — must be identical. The event engine
// flushes sleeping SMs and syncs component clocks on every exit path
// so that a pause names a point in the simulation, not in its
// schedule.
func TestPausedStateMatchesSerialTick(t *testing.T) {
	for _, row := range tableRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			if !row.pinned {
				t.Fatal("no table row pins this machine")
			}
			// Fuzzed but reproducible pause cycle inside the run, drawn
			// from other hash bits than the kill-resume tests use.
			pause := 1 + (row.hash>>32)%row.cycles

			ev := row.wl.Build(1).Start(sim.New(row.cfg))
			if _, paused, err := ev.RunUntil(context.Background(), pause); err != nil || !paused {
				t.Fatalf("event engine to cycle %d: paused=%v err=%v", pause, paused, err)
			}
			se := newSerialExecution(row.cfg, row.wl.Build(1))
			if _, paused, err := se.runUntil(pause); err != nil || !paused {
				t.Fatalf("serial tick order to cycle %d: paused=%v err=%v", pause, paused, err)
			}
			if got, want := ev.Sim().StateDigest(), se.s.StateDigest(); got != want {
				t.Errorf("paused at cycle %d: event engine digest %#x at now=%d, serial tick order %#x at now=%d",
					pause, got, ev.Sim().Now(), want, se.s.Now())
			}
		})
	}
}
