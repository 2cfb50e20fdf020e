package sim_test

import (
	"bytes"
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

// checkOrdering applies the ordering invariant of the run's
// configuration (sim.Config.Ordering) to its operation log.
func checkOrdering(t *testing.T, cfg sim.Config, ops []check.Record) {
	t.Helper()
	if order := cfg.Ordering(); order != nil {
		if vio := order(ops, 3); len(vio) > 0 {
			t.Fatalf("ordering invariant violated: %v", vio[0].Error())
		}
	}
}

// relaxedProtocols are the coherent protocol configurations the
// relaxed-sync equivalence suite sweeps (golden config labels): the
// four protocols, plus TC-Strong, whose banks sleep through lease waits
// on the exchange's timed wakes.
var relaxedProtocols = []string{"gtsc-rc", "tc-rc", "tc-sc", "bl-rc", "dir-rc"}

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
					if _, err := wl.Build(1).Start(s).Run(context.Background()); err != nil {
						t.Fatalf("slack=%d: %v", slack, err)
					}
					checkOrdering(t, c, rec.Ops())
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
		r, err := wl.Build(1).Start(s).Run(context.Background())
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
				r, err := row.wl.Build(1).Start(s).Run(context.Background())
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

// TestRelaxedPauseBitIdentical: a pause under relaxed sync lands on
// the first epoch barrier at or after its stop cycle and never cuts an
// epoch short, so pausing is pure suspension, as on the exact engine.
// Pausing every 37 cycles — off the slack-8 grid, so most stops fall
// mid-epoch — through checkpoint.Execution must finish with stats and
// architected memory bit-identical to the uninterrupted run, for the
// coherence six under G-TSC-RC and TC-RC.
func TestRelaxedPauseBitIdentical(t *testing.T) {
	for _, wl := range workload.CoherenceSet() {
		for _, label := range []string{"gtsc-rc", "tc-rc"} {
			wl, label := wl, label
			t.Run(wl.Name+"/"+label, func(t *testing.T) {
				t.Parallel()
				cfg, _ := goldenConfig(label)
				cfg.SlackCycles = 8
				ctx := context.Background()
				base := checkpoint.NewExecution(cfg, wl.Build(1), wl.Name, 1)
				want, err := base.Run(ctx)
				if err != nil {
					t.Fatalf("uninterrupted: %v", err)
				}

				e := checkpoint.NewExecution(cfg, wl.Build(1), wl.Name, 1)
				pauses := 0
				for stop := uint64(37); ; stop += 37 {
					got, paused, err := e.RunUntil(ctx, stop)
					if err != nil {
						t.Fatalf("pause at %d: %v", stop, err)
					}
					if paused {
						pauses++
						continue
					}
					if pauses == 0 {
						t.Fatal("run completed before its first pause")
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("run paused %d times diverged from uninterrupted:\npaused        %+v\nuninterrupted %+v", pauses, got, want)
					}
					break
				}
				if eng := e.Sim().Engine(); eng.Relaxed.Epochs == 0 {
					t.Fatal("relaxed engine never engaged")
				}
				blocks := touchedBlocks(base.Sim(), e.Sim())
				if got, want := architectedImage(e.Sim(), blocks), architectedImage(base.Sim(), blocks); got != want {
					t.Errorf("paused run's architected memory diverged (%s vs %s)", got, want)
				}
			})
		}
	}
}

// TestRelaxedCheckpointHandoff: a checkpoint taken mid-run under
// relaxed sync must survive a cross-process-style handoff — encode,
// decode, ResumeExecution in a fresh machine — with the digest
// verification PASSING: the checkpoint sits on an epoch barrier, and a
// replay straight to its cycle pauses on the same barrier. The resumed
// execution and the original must then both finish with stats
// bit-identical to an uninterrupted run — pauses are pure suspension.
func TestRelaxedCheckpointHandoff(t *testing.T) {
	cfg, _ := goldenConfig("gtsc-rc")
	cfg.SlackCycles = 8
	wl, ok := workload.ByName("CC")
	if !ok {
		t.Fatal("workload CC missing")
	}
	ctx := context.Background()

	want, err := checkpoint.NewExecution(cfg, wl.Build(1), "CC", 1).Run(ctx)
	if err != nil {
		t.Fatalf("uninterrupted: %v", err)
	}

	// Dense grid-misaligned pauses, each landing on a later barrier.
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

	// Hand off through the checkpoint file format.
	var frame bytes.Buffer
	if err := orig.Checkpoint().Encode(&frame); err != nil {
		t.Fatalf("encode: %v", err)
	}
	ck, err := checkpoint.Decode(&frame)
	if err != nil {
		t.Fatalf("decode: %v", err)
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
	if !reflect.DeepEqual(origRun, want) {
		t.Errorf("paused run diverged from uninterrupted:\norig          %+v\nuninterrupted %+v", origRun, want)
	}
	if !reflect.DeepEqual(resumedRun, want) {
		t.Errorf("resumed run diverged from uninterrupted:\nresumed       %+v\nuninterrupted %+v", resumedRun, want)
	}
	if eng := resumed.Sim().Engine(); eng.Relaxed.Epochs == 0 {
		t.Fatal("relaxed engine never engaged in resumed run")
	}
	blocks := touchedBlocks(orig.Sim(), resumed.Sim())
	if got, want := architectedImage(resumed.Sim(), blocks), architectedImage(orig.Sim(), blocks); got != want {
		t.Errorf("resumed architected memory diverged (%s vs %s)", got, want)
	}
}

// TestRelaxedNextKernelWakesIdleDomain: an SM domain that runs out of
// work early in one kernel sleeps on an idle stall probe, and the CTAs
// the next kernel assigns it must void that sleep. In kernel 1, CTA 0
// (on SM 0) runs a single ALU instruction while the other CTAs wait on
// two loads, so SM 0's domain goes idle early; in kernel 2 every thread
// stores GTID+5, SM 0's included. Both kernels must complete and every
// word read back, at each slack and domain worker count. A domain that
// kept its kernel-1 probe would skip every epoch of kernel 2 and trip
// the short watchdog window.
func TestRelaxedNextKernelWakesIdleDomain(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	const loadBase, storeBase = mem.Addr(0x20000), mem.Addr(0x30000)
	word := func(base mem.Addr) func(t *gpu.Thread) (mem.Addr, bool) {
		return func(t *gpu.Thread) (mem.Addr, bool) { return base + mem.Addr(t.GTID*4), true }
	}
	inc := gpu.ALU(func(t *gpu.Thread) { t.Regs[1] = t.Regs[0] + 1 }, 0)
	short := []*gpu.Instr{inc}
	long := []*gpu.Instr{gpu.Load(0, word(loadBase)), inc, gpu.Load(0, word(loadBase+0x1000)), inc}
	store := []*gpu.Instr{gpu.Store(word(storeBase), func(t *gpu.Thread) uint32 { return uint32(t.GTID) + 5 })}
	const ctas = 4 // one per SM, so SM 0 gets no second CTA in kernel 1
	idle := &gpu.Kernel{Name: "idle", CTAs: ctas, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			if w.CTA.ID == 0 {
				return gpu.Seq(short...)
			}
			return gpu.Seq(long...)
		}}
	stores := &gpu.Kernel{Name: "store", CTAs: ctas, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(*gpu.Warp) gpu.Program { return gpu.Seq(store...) }}

	for _, label := range []string{"gtsc-rc", "tc-rc"} {
		for _, slack := range []uint64{8, 32} {
			for _, workers := range []int{1, 2} {
				label, slack, workers := label, slack, workers
				t.Run(fmt.Sprintf("%s/slack%d/workers%d", label, slack, workers), func(t *testing.T) {
					t.Parallel()
					cfg, _ := goldenConfig(label)
					cfg.SlackCycles = slack
					cfg.SimWorkers = workers
					cfg.WatchdogWindow = 5_000
					s := sim.New(cfg)
					for _, k := range []*gpu.Kernel{idle, stores} {
						if _, err := s.Run(k); err != nil {
							t.Fatalf("kernel %q: %v", k.Name, err)
						}
					}
					if s.Engine().Relaxed.Epochs == 0 {
						t.Fatal("relaxed engine never engaged")
					}
					for gtid := 0; gtid < ctas*gpu.WarpWidth; gtid++ {
						if got, want := s.ReadWord(storeBase+mem.Addr(gtid*4)), uint32(gtid)+5; got != want {
							t.Errorf("thread %d stored %d, want %d", gtid, got, want)
						}
					}
				})
			}
		}
	}
}
