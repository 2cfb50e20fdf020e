// Package harness is the fuzz-style fault-injection harness: it runs
// the coherence-requiring benchmarks under seeded chaos fault plans
// (NoC delivery jitter, cross-pair reordering, transient injection
// rejects, DRAM latency spikes, timestamp stress) and verifies both
// the workload's sequential reference and the protocol's ordering
// invariant on the recorded operation log.
//
// Every perturbation is drawn from one deterministic stream, so any
// failure the harness reports reproduces exactly from its seed —
// rerun the failing case, or replay it interactively with
// `gtscsim -workload <name> -protocol <p> -faultseed <seed> -check`.
package harness

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// Variant pairs a protocol with a consistency model under which the
// harness knows which ordering invariant to check.
type Variant struct {
	Name        string
	Protocol    memsys.Protocol
	Consistency gpu.Consistency
}

// Variants returns the protocol/consistency pairs the harness fuzzes:
// each coherent protocol once, paired so an ordering invariant is
// mechanically checkable (G-TSC's timestamp order holds under any
// model; TC runs strong under SC so physical linearizability applies;
// the directory baseline is linearizable under every model).
func Variants() []Variant {
	return []Variant{
		{"gtsc-rc", memsys.GTSC, gpu.RC},
		{"tc-sc", memsys.TC, gpu.SC},
		{"bl-sc", memsys.BL, gpu.SC},
		{"dir-rc", memsys.DIR, gpu.RC},
	}
}

// Plans returns n chaos plans with consecutive seeds starting at base.
func Plans(base int64, n int) []fault.Config {
	out := make([]fault.Config, n)
	for i := range out {
		out[i] = fault.Chaos(base + int64(i))
	}
	return out
}

// Config returns the small machine the harness fuzzes on: 4 SMs over
// 4 banks with deliberately tight caches and MSHRs, so capacity
// conflicts and protocol races happen within scale-1 benchmarks.
func Config(v Variant) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = v.Protocol
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	cfg.Mem.L1Sets = 8
	cfg.Mem.L1Ways = 2
	cfg.Mem.L1MSHRs = 8
	cfg.Mem.L2Sets = 32
	cfg.Mem.L2Ways = 4
	cfg.SM.Consistency = v.Consistency
	cfg.MaxCycles = 20_000_000
	return cfg
}

// Run executes one workload instance under one fault plan and checks
// everything checkable: the run must complete (no deadlock, no
// protocol error), the workload's sequential reference must verify,
// and the operation log must satisfy the variant's ordering rule. The
// returned error includes the plan so the failure replays from its
// seed.
func Run(v Variant, plan fault.Config, wl *workload.Workload, scale int) error {
	cfg := Config(v)
	cfg.Mem.Fault = plan
	rec := check.NewRecorder()
	cfg.Observer = rec
	if _, err := wl.Build(scale).Run(cfg); err != nil {
		return fmt.Errorf("%s on %s under [%s]: %w", wl.Name, v.Name, plan, err)
	}
	if rec.Len() == 0 {
		return fmt.Errorf("%s on %s under [%s]: no operations observed", wl.Name, v.Name, plan)
	}
	if order := cfg.Ordering(); order != nil {
		if vio := order(rec.Ops(), 3); len(vio) > 0 {
			return fmt.Errorf("%s on %s under [%s]: %s", wl.Name, v.Name, plan, vio[0].Error())
		}
	}
	return nil
}
