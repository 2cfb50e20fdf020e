// Command goldengen regenerates the fingerprint tables of
// internal/sim/golden_test.go (goldenRows) and
// internal/sim/chaos_golden_test.go (chaosRows). Run it on a
// known-good build and paste each section of its output into the
// matching table whenever the simulated machine's intended behaviour
// changes; CI diffs both sections against the committed tables.
package main

import (
	"fmt"
	"hash/fnv"

	"github.com/gtsc-sim/gtsc/internal/dram"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

type cfgT struct {
	label  string
	proto  memsys.Protocol
	cons   gpu.Consistency
	mesh   bool
	bank   bool
	tsbits int
}

var cfgs = []cfgT{
	{"gtsc-rc", memsys.GTSC, gpu.RC, false, false, 0},
	{"gtsc-sc", memsys.GTSC, gpu.SC, false, false, 0},
	{"gtsc-tso", memsys.GTSC, gpu.TSO, false, false, 0},
	{"tc-rc", memsys.TC, gpu.RC, false, false, 0},
	// TC under SC is TC-Strong: writes wait at the L2 for leases to
	// expire, so the lease-wait path is pinned too.
	{"tc-sc", memsys.TC, gpu.SC, false, false, 0},
	{"bl-rc", memsys.BL, gpu.RC, false, false, 0},
	{"dir-rc", memsys.DIR, gpu.RC, false, false, 0},
	{"gtsc-rc-mesh-banked", memsys.GTSC, gpu.RC, true, true, 0},
	// 8-bit timestamps: the §V-D overflow reset becomes a routine
	// event, so its epoch-crossing paths are golden-pinned too.
	{"gtsc-rc-ts8", memsys.GTSC, gpu.RC, false, false, 8},
}

// chaosConfigs are the golden configs the chaos table sweeps: one per
// coherent protocol, plus G-TSC and TC under SC.
var chaosConfigs = []string{"gtsc-rc", "gtsc-sc", "tc-rc", "tc-sc", "bl-rc", "dir-rc"}

// chaosPlans are the chaos table's fault plans, by row label.
var chaosPlans = []struct {
	label string
	plan  fault.Config
}{
	{"chaos1", fault.Chaos(1)},
	{"chaos2", fault.Chaos(2)},
	{"rollover3", fault.ChaosRollover(3)},
}

func config(c cfgT) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = c.proto
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	cfg.SM.Consistency = c.cons
	if c.mesh {
		cfg.Mem.NoC = noc.DefaultMeshConfig()
	}
	if c.bank {
		cfg.Mem.DRAM = dram.DefaultBankedConfig()
	}
	cfg.Mem.GTSC.TSBits = c.tsbits
	return cfg
}

func run(wl *workload.Workload, cfg sim.Config, label string) *stats.Run {
	r, err := wl.Build(1).Run(cfg)
	if err != nil {
		panic(fmt.Sprintf("%s/%s: %v", wl.Name, label, err))
	}
	return r
}

func fingerprint(r *stats.Run) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *r)
	return h.Sum64()
}

func main() {
	fmt.Println("// goldenRows")
	for _, wl := range workload.All() {
		for _, c := range cfgs {
			r := run(wl, config(c), c.label)
			fmt.Printf("\t{%q, %q, %d, %d, %#x},\n", wl.Name, c.label, r.Cycles, r.NoC.TotalFlits(), fingerprint(r))
		}
	}
	fmt.Println("// chaosRows")
	for _, wl := range workload.CoherenceSet() {
		for _, label := range chaosConfigs {
			var c cfgT
			for _, g := range cfgs {
				if g.label == label {
					c = g
				}
			}
			for _, p := range chaosPlans {
				cfg := config(c)
				cfg.Mem.Fault = p.plan
				r := run(wl, cfg, label+"/"+p.label)
				fmt.Printf("\t{%q, %q, %q, %d, %d, %#x},\n", wl.Name, label, p.label, r.Cycles, r.NoC.TotalFlits(), fingerprint(r))
			}
		}
	}
}
