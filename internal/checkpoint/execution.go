package checkpoint

import (
	"context"
	"errors"
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// ErrDigestMismatch reports that deterministic replay did not
// reproduce the checkpointed machine state — the config hash matched
// but the machine diverged, which means the checkpoint was taken by a
// different binary/workload build or determinism regressed. Either
// way the restore must not continue.
var ErrDigestMismatch = errors.New("checkpoint: state digest mismatch after replay")

// Execution is the workload driver (workload.Execution) of one
// checkpointable run, together with the identity a checkpoint
// coordinate records: the configuration, the workload's name and its
// scale. Run, RunUntil and Sim are the driver's.
type Execution struct {
	*workload.Execution
	cfg   sim.Config
	name  string
	scale int
}

// NewExecution builds a fresh execution (cycle 0, nothing run).
func NewExecution(cfg sim.Config, inst *workload.Instance, name string, scale int) *Execution {
	return &Execution{Execution: inst.Start(sim.New(cfg)), cfg: cfg, name: name, scale: scale}
}

// Checkpoint captures the execution's current coordinate and state
// digest. Valid whenever the execution is not mid-Tick — i.e. any time
// RunUntil/Run has returned (paused, canceled, or even mid-idle).
func (e *Execution) Checkpoint() *Checkpoint {
	snap := e.Sim().Snapshot()
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
	snap := e.Sim().Snapshot()
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
