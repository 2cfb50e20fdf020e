package sim_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"context"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// architectedImage renders the architected memory of a finished
// simulation (the L2-overlaid view ReadWord exposes, not the raw DRAM
// store) over a given block set, word for word.
func architectedImage(s *sim.Simulator, blocks []mem.BlockAddr) string {
	h := fnv.New64a()
	var out []byte
	for _, b := range blocks {
		out = fmt.Appendf(out, "blk %#x", uint64(b))
		for i := 0; i < mem.WordsPerBlock; i++ {
			out = fmt.Appendf(out, " %x", s.ReadWord(b.WordAddr(i)))
		}
		out = append(out, '\n')
	}
	h.Write(out)
	return fmt.Sprintf("%#x", h.Sum64())
}

// touchedBlocks returns the union of both simulations' allocated
// backing-store blocks, deduplicated, in ascending order.
func touchedBlocks(a, b *sim.Simulator) []mem.BlockAddr {
	seen := map[mem.BlockAddr]bool{}
	var out []mem.BlockAddr
	collect := func(s *sim.Simulator) {
		s.Store.ForEachBlock(func(blk mem.BlockAddr) {
			if !seen[blk] {
				seen[blk] = true
				out = append(out, blk)
			}
		})
	}
	collect(a)
	collect(b)
	return out
}

// checkOrdering applies the protocol's ordering invariant to a
// recorded operation log (mirrors the gtscsim -check dispatch; TC
// under RC is TC-Weak, whose bounded staleness has no log-level
// invariant — functional verification still applies).
func checkOrdering(t *testing.T, p memsys.Protocol, cons gpu.Consistency, ops []check.Record) {
	t.Helper()
	var vio []check.Violation
	switch p {
	case memsys.GTSC:
		vio = check.CheckTimestampOrder(ops, 3)
	case memsys.BL, memsys.DIR:
		vio = check.CheckPhysical(ops, 3)
	case memsys.TC:
		if cons == gpu.SC {
			vio = check.CheckPhysical(ops, 3)
		}
	}
	if len(vio) > 0 {
		t.Fatalf("ordering invariant violated: %v", vio[0].Error())
	}
}

// relaxedProtocols are the four coherent protocol configurations the
// relaxed-sync equivalence suite sweeps (golden config labels).
var relaxedProtocols = []string{"gtsc-rc", "tc-rc", "bl-rc", "dir-rc"}

// TestRelaxedSlackFunctionalEquivalence is the correctness gate for
// bounded-slack execution: for every coherence-requiring workload
// under every coherent protocol, a run at SlackCycles 1, 8 and 64 must
// be FUNCTIONALLY identical to the bit-exact slack-0 run — the
// workload's word-for-word verification against its sequential
// reference passes (Instance.Run enforces it), the protocol's ordering
// invariant holds over the full recorded operation log, and the final
// architected memory image matches the slack-0 image word for word
// over every block either run touched. Timing (cycle counts, stall
// breakdowns) is allowed to deviate; function is not.
func TestRelaxedSlackFunctionalEquivalence(t *testing.T) {
	for _, wl := range workload.CoherenceSet() {
		for _, label := range relaxedProtocols {
			wl, label := wl, label
			t.Run(wl.Name+"/"+label, func(t *testing.T) {
				t.Parallel()
				cfg, ok := goldenConfig(label)
				if !ok {
					t.Fatalf("unknown config label %q", label)
				}

				run := func(slack uint64) (*sim.Simulator, *check.Recorder) {
					c := cfg
					c.SlackCycles = slack
					rec := check.NewRecorder()
					c.Observer = rec
					s := sim.New(c)
					if _, err := wl.Build(1).RunOn(s); err != nil {
						t.Fatalf("slack=%d: %v", slack, err)
					}
					checkOrdering(t, c.Mem.Protocol, c.SM.Consistency, rec.Ops())
					return s, rec
				}

				base, baseRec := run(0)
				if baseRec.Len() == 0 {
					t.Fatal("observer recorded no operations")
				}
				for _, slack := range []uint64{1, 8, 64} {
					s, rec := run(slack)
					if eng := s.Engine(); eng.Relaxed.Epochs == 0 {
						t.Fatalf("slack=%d: relaxed engine never engaged", slack)
					}
					if rec.Len() == 0 {
						t.Fatalf("slack=%d: observer recorded no operations", slack)
					}
					blocks := touchedBlocks(base, s)
					if got, want := architectedImage(s, blocks), architectedImage(base, blocks); got != want {
						t.Errorf("slack=%d: architected memory diverged from slack=0 (digest %s, want %s)", slack, got, want)
					}
				}
			})
		}
	}
}

// TestRelaxedChaosForcesBitExact pins the safety interlock between
// relaxed sync and fault injection: chaos plans define their
// perturbation schedules in terms of exact per-cycle interleaving, so
// a simulation with an active injector must ignore SlackCycles
// entirely — zero epochs, and a stats.Run bit-identical to the same
// fault seed at slack 0.
func TestRelaxedChaosForcesBitExact(t *testing.T) {
	cfg, _ := goldenConfig("gtsc-rc")
	cfg.Mem.Fault = fault.Chaos(7)

	wl, ok := workload.ByName("CC")
	if !ok {
		t.Fatal("workload CC missing")
	}
	run := func(slack uint64) (*stats.Run, *sim.EngineStats) {
		c := cfg
		c.SlackCycles = slack
		s := sim.New(c)
		r, err := wl.Build(1).RunOn(s)
		if err != nil {
			t.Fatalf("slack=%d: %v", slack, err)
		}
		return r, s.Engine()
	}
	exact, _ := run(0)
	relaxed, eng := run(8)
	if eng.Relaxed.Epochs != 0 {
		t.Fatalf("fault injection active but relaxed engine ran %d epochs", eng.Relaxed.Epochs)
	}
	if !reflect.DeepEqual(exact, relaxed) {
		t.Error("slack=8 under fault injection diverged from slack=0 (must be bit-identical: chaos pins the bit-exact path)")
	}
}

// TestRelaxedWorkerCountInvariant: a relaxed run is deterministic at
// ANY worker count — the epoch buffers capture each domain's sends
// against its own clock and the barrier replays them in canonical
// port order, so goroutine interleaving cannot reach the machine.
// SimWorkers sizes only this domain pool, so this is its determinism
// gate on every golden row: the stats and the final architected memory
// at simworkers=4 must equal simworkers=1. GOMAXPROCS is forced to 4
// so the domain pool actually engages even on a 1-CPU host (and under
// -race this doubles as the race gate for the relaxed pool).
func TestRelaxedWorkerCountInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	for _, row := range goldenTable(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cfg := row.cfg
			cfg.SlackCycles = 8

			run := func(workers int) (*stats.Run, *sim.Simulator) {
				c := cfg
				c.SimWorkers = workers
				s := sim.New(c)
				r, err := row.wl.Build(1).RunOn(s)
				if err != nil {
					t.Fatalf("simworkers=%d: %v", workers, err)
				}
				if eng := s.Engine(); eng.Relaxed.Epochs == 0 {
					t.Fatalf("simworkers=%d: relaxed engine never engaged", workers)
				}
				return r, s
			}
			serialRun, serialSim := run(1)
			parRun, parSim := run(4)
			if !reflect.DeepEqual(serialRun, parRun) {
				t.Error("relaxed run at simworkers=4 diverged from simworkers=1")
			}
			blocks := touchedBlocks(serialSim, parSim)
			if got, want := architectedImage(parSim, blocks), architectedImage(serialSim, blocks); got != want {
				t.Errorf("architected memory diverged across worker counts (%s vs %s)", got, want)
			}
		})
	}
}

// TestRelaxedPauseFunctionalEquivalence: pausing a relaxed run at an
// arbitrary mid-window cycle clamps the current epoch to the pause
// point, inserting an extra exchange — an extra observation point —
// so the paused run's cycle counts may drift from the uninterrupted
// run's (pauses landing exactly on grid barriers are trajectory-
// neutral; arbitrary ones are the same bounded added-latency
// perturbation slack itself introduces, and checkpoint restore
// replays the same pause coordinate so resumes stay self-consistent).
// What must hold is functional identity: the workload's word-for-word
// verification passes and the final architected memory matches the
// uninterrupted run over every block either run touched.
func TestRelaxedPauseFunctionalEquivalence(t *testing.T) {
	cfg, _ := goldenConfig("gtsc-rc")
	cfg.SlackCycles = 8
	wl, ok := workload.ByName("CC")
	if !ok {
		t.Fatal("workload CC missing")
	}

	base := sim.New(cfg)
	baseRun, err := wl.Build(1).RunOn(base)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	// Grid-misaligned pause points scattered through the run.
	pauses := []uint64{
		baseRun.Cycles/4 + 1,
		baseRun.Cycles/2 + 3,
		3*baseRun.Cycles/4 + 5,
	}
	e := checkpoint.NewExecution(cfg, wl.Build(1), "CC", 1)
	ctx := context.Background()
	for _, p := range pauses {
		if _, paused, err := e.RunUntil(ctx, p); err != nil {
			t.Fatalf("pause at %d: %v", p, err)
		} else if !paused {
			t.Fatalf("run completed before pause cycle %d", p)
		}
	}
	pausedRun, err := e.Run(ctx)
	if err != nil {
		t.Fatalf("run to completion (verification included): %v", err)
	}
	s := e.Sim()
	if eng := s.Engine(); eng.Relaxed.Epochs == 0 {
		t.Fatal("relaxed engine never engaged")
	}
	t.Logf("cycles: uninterrupted=%d paused=%d identical=%t",
		baseRun.Cycles, pausedRun.Cycles, reflect.DeepEqual(baseRun, pausedRun))
	blocks := touchedBlocks(base, s)
	if got, want := architectedImage(s, blocks), architectedImage(base, blocks); got != want {
		t.Errorf("paused relaxed run diverged functionally from uninterrupted (%s vs %s)", got, want)
	}
}

// TestRelaxedCheckpointHandoff: a checkpoint taken mid-run under
// relaxed sync must survive a cross-process-style handoff — encode,
// decode, ResumeExecution in a fresh machine — with the digest
// verification PASSING. This is only possible because the checkpoint
// records the pause schedule (Checkpoint.PauseCycles): each mid-window
// pause perturbs the relaxed trajectory, so a replay that ran straight
// to the checkpoint cycle would land in a different machine state and
// be rejected. The resumed execution and the original must then finish
// with bit-identical stats — after a verified resume they are the same
// machine.
func TestRelaxedCheckpointHandoff(t *testing.T) {
	cfg, _ := goldenConfig("gtsc-rc")
	cfg.SlackCycles = 8
	wl, ok := workload.ByName("CC")
	if !ok {
		t.Fatal("workload CC missing")
	}
	ctx := context.Background()

	// Dense grid-misaligned pauses: each clamps an epoch mid-window,
	// accumulating trajectory perturbation the replay must reproduce.
	var pauses []uint64
	for p := uint64(37); p <= 37*13; p += 37 {
		pauses = append(pauses, p)
	}
	orig := checkpoint.NewExecution(cfg, wl.Build(1), "CC", 1)
	for _, p := range pauses {
		if _, paused, err := orig.RunUntil(ctx, p); err != nil {
			t.Fatalf("pause at %d: %v", p, err)
		} else if !paused {
			t.Fatalf("run completed before pause cycle %d", p)
		}
	}

	// Hand off through the wire format, as the sweep worker does.
	frame, err := orig.Checkpoint().EncodeBytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ck, err := checkpoint.DecodeBytes(frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(ck.PauseCycles) == 0 {
		t.Fatal("checkpoint carries no pause schedule")
	}
	resumed, err := checkpoint.ResumeExecution(ck, cfg, wl.Build(1), "CC", 1)
	if err != nil {
		t.Fatalf("resume (digest-verified replay): %v", err)
	}

	origRun, err := orig.Run(ctx)
	if err != nil {
		t.Fatalf("original completion: %v", err)
	}
	resumedRun, err := resumed.Run(ctx)
	if err != nil {
		t.Fatalf("resumed completion: %v", err)
	}
	if !reflect.DeepEqual(origRun, resumedRun) {
		t.Errorf("resumed run diverged from original:\norig    %+v\nresumed %+v", origRun, resumedRun)
	}
	if eng := resumed.Sim().Engine(); eng.Relaxed.Epochs == 0 {
		t.Fatal("relaxed engine never engaged in resumed run")
	}
	blocks := touchedBlocks(orig.Sim(), resumed.Sim())
	if got, want := architectedImage(resumed.Sim(), blocks), architectedImage(orig.Sim(), blocks); got != want {
		t.Errorf("resumed architected memory diverged (%s vs %s)", got, want)
	}
}
