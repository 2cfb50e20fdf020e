// Package sweep is the fault-tolerant distributed sweep service: an
// HTTP coordinator (cmd/gtscd) shards a manifest of simulations across
// a worker fleet, and no worker death, network fault or coordinator
// crash may lose or corrupt a result.
//
// The design center is robustness, built from the resilience
// primitives the in-process experiment engine already proved out
// (PRs 1, 3–5):
//
//   - work items are handed out as LEASES with heartbeat-extended
//     deadlines; a worker that dies mid-run (missed heartbeats) has
//     its lease revoked and the item reassigned;
//   - workers stream internal/checkpoint frames back with each
//     heartbeat, so a reassigned item resumes by verified
//     deterministic replay from the last frame instead of losing the
//     coordinate entirely — and the digest proves the successor
//     reproduced the exact pre-death trajectory;
//   - the coordinator persists sweeps, completions, failures and
//     checkpoint frames through the CRC-framed append-only
//     checkpoint.Journal; a restart replays to the exact pre-crash
//     assignment state and never re-executes a finished run;
//   - results are content-addressed by config hash, so identical
//     items across concurrent sweeps are simulated once and shared;
//   - transient fault-injected failures retry with bounded
//     exponential backoff under per-attempt derived seeds, exactly
//     the experiments.Session semantics;
//   - the transport is chaos-tested through the injectable
//     fault.TransportConfig shim (drops, lost replies, duplicates,
//     delays, mid-stream disconnects), and every endpoint is
//     idempotent so replayed or lost messages cannot corrupt state;
//   - with no coordinator or workers reachable, gtscctl degrades
//     gracefully to local in-process execution (RunLocal) with a
//     warning — same manifest, bit-identical results.
//
// Determinism is the backbone: every simulation is hermetic and
// seed-stable, so a sweep that survives any number of worker kills,
// reassignments and coordinator restarts completes with results
// bit-identical to a serial local run (Fingerprint pins it).
package sweep

import (
	"fmt"
	"hash/fnv"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/experiments"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// Item is one simulation of a sweep manifest: a (workload, protocol,
// consistency, machine, fault plan) coordinate. Items are plain values
// so they serialize over the wire and into the coordinator journal,
// and two textually different items that assemble the same simulator
// configuration share one content address (see ID).
type Item struct {
	// Workload names a benchmark or microbenchmark (workload.ByName /
	// MicroByName).
	Workload string
	// Scale is the workload scale factor (0 = 1, the test size).
	Scale int
	// Protocol is gtsc, tc, bl, l1nc or dir.
	Protocol string
	// Consistency is rc, sc or tso.
	Consistency string
	// Lease overrides the selected protocol's lease (0 = default:
	// 10 logical for gtsc, 400 cycles for tc).
	Lease uint64
	// NumSMs/NumBanks describe the machine (0 = paper defaults 16/8).
	NumSMs   int
	NumBanks int
	// MaxCycles guards against non-convergence (0 = engine default).
	MaxCycles uint64
	// FaultSeed, when non-zero, runs the simulation under the chaos
	// fault-injection plan. It is the BASE seed: retry attempt n runs
	// under experiments.DeriveFaultSeed(FaultSeed, n), exactly like a
	// local session, so distributed retries stay bit-compatible.
	FaultSeed int64
}

func (it Item) withDefaults() Item {
	if it.Scale == 0 {
		it.Scale = 1
	}
	if it.Consistency == "" {
		it.Consistency = "rc"
	}
	return it
}

// Instance resolves and builds the workload at the item's scale.
func (it Item) Instance() (*workload.Instance, error) {
	it = it.withDefaults()
	wl, ok := workload.Lookup(it.Workload)
	if !ok {
		return nil, fmt.Errorf("sweep: unknown workload %q", it.Workload)
	}
	// An unknown protocol is SimConfig's error to report.
	if p, err := memsys.ParseProtocol(it.Protocol); err == nil {
		if err := wl.CheckProtocol(p); err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
	}
	return wl.Build(it.Scale), nil
}

// SimConfig assembles the simulator configuration of one attempt of
// the item. The attempt index only varies the derived fault seed; with
// fault injection off every attempt is identical. Every node — the
// original worker, a reassigned successor, the local fallback — builds
// the config from the item alone, which is what makes checkpoint
// handoff verifiable: checkpoint.ConfigHash of attempt n matches
// across processes.
func (it Item) SimConfig(attempt int) (sim.Config, error) {
	it = it.withDefaults()
	cfg := sim.DefaultConfig()
	if it.NumSMs > 0 {
		cfg.Mem.NumSMs = it.NumSMs
	}
	if it.NumBanks > 0 {
		cfg.Mem.NumBanks = it.NumBanks
	}
	if it.MaxCycles > 0 {
		cfg.MaxCycles = it.MaxCycles
	}
	var err error
	if cfg.Mem.Protocol, err = memsys.ParseProtocol(it.Protocol); err != nil {
		return cfg, fmt.Errorf("sweep: %w", err)
	}
	switch cfg.Mem.Protocol {
	case memsys.GTSC:
		if it.Lease != 0 {
			cfg.Mem.GTSC.Lease = it.Lease
		}
	case memsys.TC:
		if it.Lease != 0 {
			cfg.Mem.TC.Lease = it.Lease
		}
	}
	if cfg.SM.Consistency, err = gpu.ParseConsistency(it.Consistency); err != nil {
		return cfg, fmt.Errorf("sweep: %w", err)
	}
	if it.FaultSeed != 0 {
		cfg.Mem.Fault = fault.Chaos(experiments.DeriveFaultSeed(it.FaultSeed, attempt))
	}
	return cfg, nil
}

// Validate resolves the item completely (workload and configuration),
// returning the first inconsistency. Submission validates every item
// before accepting a sweep, so workers only ever receive runnable work.
func (it Item) Validate() error {
	if _, err := it.Instance(); err != nil {
		return err
	}
	_, err := it.SimConfig(0)
	return err
}

// ID is the item's content address: the workload identity plus the
// checkpoint.ConfigHash of its base (attempt 0) configuration. Two
// items that would run the same simulation — even submitted by
// different sweeps, phrased with different default spellings — collide
// here, which is what dedupes the shared result store.
func (it Item) ID() (string, error) {
	it = it.withDefaults()
	cfg, err := it.SimConfig(0)
	if err != nil {
		return "", err
	}
	if _, err := it.Instance(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s.%d.%016x", it.Workload, it.Scale, checkpoint.ConfigHash(cfg)), nil
}

// Variant renders the protocol/consistency coordinate compactly
// ("gtsc-rc", "tc-sc l=100", "gtsc-rc seed=7").
func (it Item) Variant() string {
	s := it.Protocol + "-" + it.Consistency
	if it.Consistency == "" {
		s = it.Protocol + "-rc"
	}
	if it.Lease != 0 {
		s += fmt.Sprintf(" l=%d", it.Lease)
	}
	if it.FaultSeed != 0 {
		s += fmt.Sprintf(" seed=%d", it.FaultSeed)
	}
	return s
}

// Manifest is the ordered list of items one sweep requests. Duplicate
// items (same content address) are collapsed at submission, first
// occurrence wins the ordering.
type Manifest struct {
	Items []Item
}

// Grid builds the (workload x variant) cross product over a base item:
// variants are "proto-cons" strings ("gtsc-rc", "tc-sc"); base carries
// the shared machine/scale/fault knobs. Every cell is validated, so a
// grid that builds is a grid that runs.
func Grid(workloads, variants []string, base Item) (Manifest, error) {
	var m Manifest
	if len(workloads) == 0 || len(variants) == 0 {
		return m, fmt.Errorf("sweep: empty grid (%d workloads x %d variants)", len(workloads), len(variants))
	}
	for _, w := range workloads {
		for _, v := range variants {
			it := base
			it.Workload = w
			var ok bool
			it.Protocol, it.Consistency, ok = cutVariant(v)
			if !ok {
				return m, fmt.Errorf("sweep: malformed variant %q (want proto-cons, e.g. gtsc-rc)", v)
			}
			if err := it.Validate(); err != nil {
				return m, err
			}
			m.Items = append(m.Items, it)
		}
	}
	return m, nil
}

// cutVariant splits "gtsc-rc" into ("gtsc", "rc").
func cutVariant(v string) (proto, cons string, ok bool) {
	for i := 0; i < len(v); i++ {
		if v[i] == '-' {
			return v[:i], v[i+1:], i > 0 && i+1 < len(v)
		}
	}
	return "", "", false
}

// Fingerprint condenses a run's complete statistics to the FNV-1a hash
// the golden tables pin: two runs are bit-identical if and only if
// their fingerprints match. This is the currency of the service's
// correctness claim — a sweep that survived kills and reassignments
// must fingerprint identically to a serial local run.
func Fingerprint(run *stats.Run) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *run)
	return h.Sum64()
}
