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
	return inst.RunContext(context.Background(), cfg)
}

// RunContext is Run honoring a context: cancellation or deadline
// expiry suspends the simulation and surfaces a *diag.CanceledError.
func (inst *Instance) RunContext(ctx context.Context, cfg sim.Config) (*stats.Run, error) {
	s := sim.New(cfg)
	return inst.RunOnContext(ctx, s)
}

// RunOn executes the instance on an existing simulator.
func (inst *Instance) RunOn(s *sim.Simulator) (*stats.Run, error) {
	return inst.RunOnContext(context.Background(), s)
}

// RunOnContext executes the instance on an existing simulator,
// honoring ctx between and within kernels.
func (inst *Instance) RunOnContext(ctx context.Context, s *sim.Simulator) (*stats.Run, error) {
	var agg *stats.Run
	for _, k := range inst.Kernels {
		run, err := s.RunContext(ctx, k)
		if err != nil {
			return nil, err
		}
		if agg == nil {
			agg = run
		} else {
			agg.Accumulate(run)
		}
	}
	if inst.Verify != nil {
		if err := inst.Verify(s.ReadWord); err != nil {
			return agg, fmt.Errorf("workload verification failed: %w", err)
		}
	}
	return agg, nil
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
