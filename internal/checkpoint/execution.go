package checkpoint

import (
	"context"
	"errors"
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// ErrDigestMismatch reports that deterministic replay did not
// reproduce the checkpointed machine state — the config hash matched
// but the machine diverged, which means the checkpoint was taken by a
// different binary/workload build or determinism regressed. Either
// way the restore must not continue.
var ErrDigestMismatch = errors.New("checkpoint: state digest mismatch after replay")

// Execution drives one workload instance (a sequence of kernels) on
// one simulator, pausable at any global cycle and checkpointable at
// any pause. It owns the cross-kernel bookkeeping a checkpoint
// coordinate needs: which kernel is in flight and the aggregate stats
// of completed kernels.
type Execution struct {
	cfg   sim.Config
	inst  *workload.Instance
	name  string
	scale int

	sim      *sim.Simulator
	agg      *stats.Run
	finished bool
}

// NewExecution builds a fresh execution (cycle 0, nothing run).
func NewExecution(cfg sim.Config, inst *workload.Instance, name string, scale int) *Execution {
	return &Execution{cfg: cfg, inst: inst, name: name, scale: scale, sim: sim.New(cfg)}
}

// Sim exposes the underlying simulator (for Snapshot, ReadWord).
func (e *Execution) Sim() *sim.Simulator { return e.sim }

// Run executes the remaining work to completion, honoring ctx. On
// cancellation it returns a *diag.CanceledError with the machine
// suspended — Checkpoint() then captures the exact coordinate.
func (e *Execution) Run(ctx context.Context) (*stats.Run, error) {
	run, paused, err := e.RunUntil(ctx, 0)
	if err != nil {
		return nil, err
	}
	if paused {
		return nil, errors.New("checkpoint: execution paused without a stop cycle")
	}
	return run, nil
}

// RunUntil advances the execution until it completes or the global
// clock reaches stopAt (0 = run to completion); under relaxed sync
// (SlackCycles > 0) the pause lands on the first epoch barrier at or
// after stopAt (see sim.Simulator.RunUntil). Pausing is pure
// suspension on either engine: resuming — in this process, or in
// another one via Checkpoint/ResumeExecution — continues a trajectory
// identical to an unpaused run's.
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

// Checkpoint captures the execution's current coordinate and state
// digest. Valid whenever the execution is not mid-Tick — i.e. any time
// RunUntil/Run has returned (paused, canceled, or even mid-idle).
func (e *Execution) Checkpoint() *Checkpoint {
	snap := e.sim.Snapshot()
	return &Checkpoint{
		Workload:    e.name,
		Scale:       e.scale,
		ConfigHash:  ConfigHash(e.cfg),
		KernelIndex: snap.KernelsDone,
		Cycle:       snap.Cycle,
		Phase:       snap.Phase,
		Digest:      snap.Digest,
	}
}

// ResumeExecution reconstructs a suspended execution from its
// checkpoint by verified deterministic replay: it validates the
// identity (workload, scale, config hash), replays a fresh machine to
// the recorded cycle, and proves the replay reproduced the suspended
// state by comparing machine-state digests. The returned execution
// continues exactly where the checkpointed one stopped.
func ResumeExecution(ck *Checkpoint, cfg sim.Config, inst *workload.Instance, name string, scale int) (*Execution, error) {
	if ck.Workload != name {
		return nil, fmt.Errorf("checkpoint: workload mismatch: checkpoint has %q, resuming %q", ck.Workload, name)
	}
	if ck.Scale != scale {
		return nil, fmt.Errorf("checkpoint: scale mismatch: checkpoint has %d, resuming %d", ck.Scale, scale)
	}
	if got := ConfigHash(cfg); got != ck.ConfigHash {
		return nil, fmt.Errorf("checkpoint: config mismatch: checkpoint has %#x, resuming %#x", ck.ConfigHash, got)
	}
	e := NewExecution(cfg, inst, name, scale)
	if ck.Cycle == 0 && ck.KernelIndex == 0 && ck.Phase == "idle" {
		return e, nil // checkpointed before anything ran
	}
	// Deterministic replay to the recorded coordinate. However often the
	// original run paused on its way there, its trajectory is the
	// unpaused one, so a single pause reaches the same machine state
	// (under relaxed sync the checkpointed cycle is an epoch barrier,
	// which is where the replay's pause lands).
	_, _, err := e.RunUntil(context.Background(), ck.Cycle)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: replay failed: %w", err)
	}
	snap := e.sim.Snapshot()
	if snap.Cycle != ck.Cycle || snap.KernelsDone != ck.KernelIndex || snap.Phase != ck.Phase {
		return nil, fmt.Errorf("%w: replay landed at cycle=%d kernels=%d phase=%s, checkpoint recorded cycle=%d kernels=%d phase=%s",
			ErrDigestMismatch, snap.Cycle, snap.KernelsDone, snap.Phase, ck.Cycle, ck.KernelIndex, ck.Phase)
	}
	if snap.Digest != ck.Digest {
		return nil, fmt.Errorf("%w: replayed state digest %#x != checkpointed %#x (cycle %d)",
			ErrDigestMismatch, snap.Digest, ck.Digest, ck.Cycle)
	}
	return e, nil
}
