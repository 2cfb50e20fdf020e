package sim_test

import (
	"context"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/sim"
)

// TestKillResumeGoldenEquivalence is the kill-anywhere/rerun
// acceptance gate: every golden row is stopped at a fuzzed arbitrary
// cycle, and a fresh machine (new workload instance, new simulator —
// nothing shared with the stopped one) rerun to that cycle must reach
// the stopped machine's exact state digest, then finish bit-identical
// to the uninterrupted golden. A killed run loses nothing a rerun does
// not rebuild, and a pause is pure suspension.
func TestKillResumeGoldenEquivalence(t *testing.T) { checkKillResume(t, goldenTable(t)) }

// TestKillResumeChaosEquivalence is TestKillResumeGoldenEquivalence
// for the chaos rows. Fault shims hold messages and keep their own
// clocks, and the injector carries RNG streams and a rollover
// schedule; a rerun must rebuild all of that to the same digest, and
// the paused rerun must finish on the row's fingerprint.
func TestKillResumeChaosEquivalence(t *testing.T) { checkKillResume(t, chaosTable(t)) }

// checkKillResume stops every row of a table at a fuzzed cycle, reruns
// it on a fresh machine to the same cycle, compares the two state
// digests and finishes the rerun.
func checkKillResume(t *testing.T, rows []tableRow) {
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			if !row.pinned {
				t.Fatal("no table row pins this machine")
			}
			// Fuzzed but reproducible stop cycle: derived from the
			// golden hash, somewhere inside the run, and from other hash
			// bits than TestPausedStateMatchesSerialTick's pause.
			pause := 1 + row.hash%row.cycles
			ctx := context.Background()

			killed := row.wl.Build(1).Start(sim.New(row.cfg))
			if _, paused, err := killed.RunUntil(ctx, pause); err != nil || !paused {
				t.Fatalf("run to stop cycle %d: paused=%v err=%v", pause, paused, err)
			}

			rerun := row.wl.Build(1).Start(sim.New(row.cfg))
			if _, paused, err := rerun.RunUntil(ctx, pause); err != nil || !paused {
				t.Fatalf("rerun to stop cycle %d: paused=%v err=%v", pause, paused, err)
			}
			if got, want := rerun.Sim().StateDigest(), killed.Sim().StateDigest(); got != want {
				t.Fatalf("stopped at cycle %d: rerun digest %#x at now=%d, killed run %#x at now=%d",
					pause, got, rerun.Sim().Now(), want, killed.Sim().Now())
			}
			run, err := rerun.Run(ctx)
			if err != nil {
				t.Fatalf("rerun after the stop at cycle %d: %v", pause, err)
			}
			checkRun(t, run, row)
		})
	}
}
