// Package workload provides the twelve synthetic benchmarks standing
// in for the paper's CUDA suite (§VI-A), split exactly as the paper
// splits them:
//
//   - Set 1 — require coherence for correctness: BH, CC, DLP, VPR,
//     STN, BFS. These are converging relaxation kernels that
//     communicate *between CTAs inside a single kernel*; with a
//     non-coherent L1 they reach the wrong fixpoint, with any coherent
//     configuration (G-TSC, TC, BL) they reach the exact sequential
//     fixpoint, which Verify checks.
//   - Set 2 — do not require coherence: CCP, GE, HS, KM, BP, SGM.
//     Write-once / CTA-private patterns spanning compute-bound,
//     cache-friendly and memory-streaming behaviour.
//
// Every workload is deterministic (integer arithmetic, seeded
// generators) and ships a sequential reference against which the
// simulated result is verified word-for-word. The names approximate
// the paper's benchmarks by reproducing each one's characteristic
// memory access pattern; see DESIGN.md ("Substitutions").
package workload

import (
	"context"
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// Workload is one named benchmark.
type Workload struct {
	Name           string
	Description    string
	NeedsCoherence bool

	// Build instantiates the benchmark at a given scale (1 = smallest
	// correct instance, used by tests; experiments use larger scales).
	Build func(scale int) *Instance
}

// Instance is one buildable run of a workload: kernels to launch in
// order plus a verifier over the final memory image.
type Instance struct {
	Kernels []*gpu.Kernel
	// Verify checks the final architected memory; read returns the
	// current value of a word (L2-or-DRAM).
	Verify func(read func(mem.Addr) uint32) error
}

// Run executes the instance on a fresh simulator for cfg, verifies the
// result, and returns the aggregated statistics of all its kernels.
func (inst *Instance) Run(cfg sim.Config) (*stats.Run, error) {
	return inst.Start(sim.New(cfg)).Run(context.Background())
}

// Execution drives one instance's kernels, in order, on one simulator
// and verifies the final memory image once the last one completes: the
// one multi-kernel driver every run goes through. It is pausable at any
// global cycle and cancelable through its context, and it carries the
// cross-kernel bookkeeping a checkpoint coordinate needs: which kernel
// is in flight (the simulator's KernelsDone) and the aggregate stats of
// the kernels completed so far.
type Execution struct {
	inst     *Instance
	sim      *sim.Simulator
	agg      *stats.Run
	finished bool
}

// Start begins an execution of the instance on s, a simulator that has
// run no kernel yet. Nothing runs until Run or RunUntil.
func (inst *Instance) Start(s *sim.Simulator) *Execution {
	return &Execution{inst: inst, sim: s}
}

// Sim exposes the underlying simulator (for Snapshot, ReadWord).
func (e *Execution) Sim() *sim.Simulator { return e.sim }

// Run executes the remaining work to completion, honoring ctx. On
// cancellation it returns a *diag.CanceledError with the machine
// suspended; a later Run or RunUntil continues it. A failed
// verification returns the aggregate stats with its error.
func (e *Execution) Run(ctx context.Context) (*stats.Run, error) {
	run, _, err := e.RunUntil(ctx, 0) // no stop cycle: only ctx suspends
	return run, err
}

// RunUntil advances the execution until it completes or the global
// clock reaches stopAt (0 = run to completion); under relaxed sync
// (SlackCycles > 0) the pause lands on the first epoch barrier at or
// after stopAt (see sim.Simulator.RunUntil). Pausing is pure
// suspension on either engine: resuming — in this process, or in
// another one by replaying a fresh execution to the same cycle —
// continues a trajectory identical to an unpaused run's.
func (e *Execution) RunUntil(ctx context.Context, stopAt uint64) (*stats.Run, bool, error) {
	if e.finished {
		return e.agg, false, nil
	}
	for {
		if !e.sim.Paused() && e.sim.KernelsDone() == len(e.inst.Kernels) {
			if e.inst.Verify != nil {
				if err := e.inst.Verify(e.sim.ReadWord); err != nil {
					return e.agg, false, fmt.Errorf("workload verification failed: %w", err)
				}
			}
			e.finished = true
			return e.agg, false, nil
		}
		if stopAt != 0 && e.sim.Now() >= stopAt {
			return nil, true, nil // suspended at a kernel boundary
		}
		if !e.sim.Paused() && ctx.Err() != nil {
			// Canceled between kernels: suspend before launching the
			// next one, with the same typed error in-kernel pauses use.
			return nil, false, &diag.CanceledError{
				Kernel:      e.inst.Kernels[e.sim.KernelsDone()].Name,
				Phase:       "idle",
				Cycle:       e.sim.Now(),
				KernelIndex: e.sim.KernelsDone(),
				Cause:       context.Cause(ctx),
			}
		}
		var (
			run    *stats.Run
			paused bool
			err    error
		)
		if e.sim.Paused() {
			run, paused, err = e.sim.Resume(ctx, stopAt)
		} else {
			run, paused, err = e.sim.RunUntil(ctx, e.inst.Kernels[e.sim.KernelsDone()], stopAt)
		}
		if err != nil {
			return nil, false, err
		}
		if paused {
			return nil, true, nil
		}
		if e.agg == nil {
			e.agg = run
		} else {
			e.agg.Accumulate(run)
		}
	}
}

// All returns the full suite in the paper's presentation order:
// the coherence-requiring set first, then the coherence-free set.
func All() []*Workload {
	return []*Workload{
		BH(), CC(), DLP(), VPR(), STN(), BFS(),
		CCP(), GE(), HS(), KM(), BP(), SGM(),
	}
}

// CoherenceSet returns the six benchmarks that require coherence.
func CoherenceSet() []*Workload {
	return []*Workload{BH(), CC(), DLP(), VPR(), STN(), BFS()}
}

// NonCoherenceSet returns the six benchmarks that do not.
func NonCoherenceSet() []*Workload {
	return []*Workload{CCP(), GE(), HS(), KM(), BP(), SGM()}
}

// Lookup finds a benchmark or, failing that, a microbenchmark by its
// (case-sensitive) name.
func Lookup(name string) (*Workload, bool) {
	if w, ok := ByName(name); ok {
		return w, true
	}
	return MicroByName(name)
}

// CheckProtocol reports whether w can run under protocol p: a workload
// that needs coherence reaches the wrong result on the non-coherent L1.
func (w *Workload) CheckProtocol(p memsys.Protocol) error {
	if p == memsys.L1NC && w.NeedsCoherence {
		return fmt.Errorf("workload %s requires coherence and is not runnable under l1nc", w.Name)
	}
	return nil
}

// ByName looks a workload up by its (case-sensitive) name.
func ByName(name string) (*Workload, bool) {
	for _, w := range All() {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}
