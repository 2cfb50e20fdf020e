package sim_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
)

// TestKillResumeGoldenEquivalence is the kill-anywhere/resume
// acceptance gate: every golden row is paused at a fuzzed arbitrary
// cycle, checkpointed through the binary codec, restored into a fresh
// process-like state (new workload instance, new simulator — nothing
// shared with the paused machine), and run to completion. The final
// stats fingerprint must be bit-identical to the uninterrupted golden
// — restore is the same run, not approximately the same run.
func TestKillResumeGoldenEquivalence(t *testing.T) { checkKillResume(t, goldenTable(t)) }

// TestKillResumeChaosEquivalence is TestKillResumeGoldenEquivalence
// for the chaos rows. Fault shims hold messages and keep their own
// clocks, and the injector carries RNG streams and a rollover
// schedule; all of that must survive a pause at an arbitrary cycle, a
// round trip through the checkpoint codec, and a digest-verified
// replay on a fresh machine, and the resumed run must finish on the
// row's fingerprint.
func TestKillResumeChaosEquivalence(t *testing.T) { checkKillResume(t, chaosTable(t)) }

// checkKillResume pauses every row of a table at a fuzzed cycle,
// round-trips its checkpoint and finishes the run on a fresh machine.
func checkKillResume(t *testing.T, rows []tableRow) {
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			if !row.pinned {
				t.Fatal("no table row pins this machine")
			}
			// Fuzzed but reproducible pause cycle: derived from the
			// golden hash, somewhere inside the run.
			pause := 1 + row.hash%row.cycles

			e1 := checkpoint.NewExecution(row.cfg, row.wl.Build(1), row.wl.Name, 1)
			_, paused, err := e1.RunUntil(context.Background(), pause)
			if err != nil {
				t.Fatalf("run to pause cycle %d failed: %v", pause, err)
			}
			if !paused {
				t.Fatalf("execution did not pause at cycle %d", pause)
			}

			// Round-trip the checkpoint through the binary codec, as a
			// kill + restart would.
			var buf bytes.Buffer
			if err := e1.Checkpoint().Encode(&buf); err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck, err := checkpoint.Decode(&buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}

			// Fresh process-like state: new instance, new machine.
			e2, err := checkpoint.ResumeExecution(ck, row.cfg, row.wl.Build(1), row.wl.Name, 1)
			if err != nil {
				t.Fatalf("resume (verified replay to cycle %d): %v", ck.Cycle, err)
			}
			run, err := e2.Run(context.Background())
			if err != nil {
				t.Fatalf("post-resume run failed: %v", err)
			}
			if got := fingerprint(run); got != row.hash {
				t.Errorf("resumed-run fingerprint = %#x, golden %#x (pause at %d diverged)", got, row.hash, pause)
			}
		})
	}
}
