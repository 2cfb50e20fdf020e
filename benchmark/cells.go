package main

import (
	"fmt"
	"math"
	"runtime"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// variant is one protocol/consistency pairing, labelled as the Fig-12
// series are.
type variant struct {
	label string
	proto memsys.Protocol
	cons  gpu.Consistency
}

var (
	vBL     = variant{"BL", memsys.BL, gpu.RC}
	vGTSCRC = variant{"G-TSC-RC", memsys.GTSC, gpu.RC}
	vGTSCSC = variant{"G-TSC-SC", memsys.GTSC, gpu.SC}
	vTCRC   = variant{"TC-RC", memsys.TC, gpu.RC}
	vTCSC   = variant{"TC-SC", memsys.TC, gpu.SC}
	vL1NC   = variant{"Baseline-w/L1", memsys.L1NC, gpu.RC}
	vDIRRC  = variant{"MESI-dir-RC", memsys.DIR, gpu.RC}
)

// The machine every workload runs on: the paper's 16 SMs and 8 L2
// banks with the experiment session's leases and cycle budget.
const (
	paperSMs   = 16
	paperBanks = 8
	gtscLease  = 10
	tcLease    = 400
	maxCycles  = 500_000_000

	// relaxSlack is the bounded-slack window of the relaxed workload,
	// the knee of the slack sweep (see internal/experiments/benchsim.go).
	relaxSlack = 32
)

// simConfig builds a simulation config exactly as
// experiments.Session does for one variant.
func simConfig(v variant) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = v.proto
	cfg.Mem.NumSMs = paperSMs
	cfg.Mem.NumBanks = paperBanks
	cfg.SM.Consistency = v.cons
	cfg.MaxCycles = maxCycles
	cfg.Mem.GTSC.Lease = gtscLease
	cfg.Mem.TC.Lease = tcLease
	return cfg
}

// cell is one simulation of a workload: a function building its
// inputs, and a machine configuration.
type cell struct {
	name  string // "<workload>/<variant>", the trace id of its spans
	wl    string // workload name
	v     variant
	build func() *workload.Instance
	cfg   sim.Config
}

func newCell(wl *workload.Workload, scale int, v variant) cell {
	return cell{
		name:  wl.Name + "/" + v.label,
		wl:    wl.Name,
		v:     v,
		build: func() *workload.Instance { return wl.Build(scale) },
		cfg:   simConfig(v),
	}
}

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name  string
	cells []cell
	// fig12 marks the grid whose per-cell results must reproduce
	// experiments.Session.RunFig12.
	fig12 bool
	// relaxed marks the bounded-slack cells, whose cycle deviation is
	// measured against the exact engine.
	relaxed bool
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig12", "l2_stream", "write_mix", "relaxed"}

// newWorkload returns the named workload. seed derives the generated
// l2_stream and write_mix inputs; the other workloads use it only to
// order cells.
func newWorkload(name string, seed uint64) (*benchWorkload, error) {
	switch name {
	case "fig12":
		return &benchWorkload{name: name, cells: fig12Cells(), fig12: true}, nil
	case "l2_stream":
		return &benchWorkload{name: name, cells: l2StreamCells(seed)}, nil
	case "write_mix":
		return &benchWorkload{name: name, cells: writeMixCells(paperMix, seed, writeMixInstances)}, nil
	case "relaxed":
		return &benchWorkload{name: name, cells: relaxedCells(runtime.NumCPU()), relaxed: true}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// fig12Cells is the grid of experiments.Session.RunFig12 at scale 2:
// every workload under BL, G-TSC and TC at RC and SC, plus the
// non-coherent L1 on the coherence-free six.
func fig12Cells() []cell {
	var cells []cell
	for _, wl := range workload.All() {
		for _, v := range []variant{vBL, vGTSCRC, vGTSCSC, vTCRC, vTCSC} {
			cells = append(cells, newCell(wl, 2, v))
		}
	}
	for _, wl := range workload.NonCoherenceSet() {
		cells = append(cells, newCell(wl, 2, vL1NC))
	}
	return cells
}

// streamWords are the l2_stream array sizes in words. The L2 selects a
// bank by the low bits of the block address and, within the bank, a set
// by the same bits, so each bank uses only an eighth of its sets: the
// L2 holds 128 KB of a contiguous array, not 1 MB. Three arrays of 8K
// words (96 KB) fit and half the accesses hit; 16K words (192 KB) hit
// about a quarter; 64K words (768 KB) miss every access.
var streamWords = []int{8192, 16384, 65536}

// l2StreamCells runs generated STREAM kernels under the no-L1
// baseline, so every access crosses the NoC to the L2 banks, and the
// larger arrays stream through them to DRAM. seed derives each array
// size's input data and scale factor.
func l2StreamCells(seed uint64) []cell {
	var cells []cell
	for i, words := range streamWords {
		sh := streamShape{CTAs: 64, WarpsPerCTA: 4, Words: words}
		stream := genSeed(seed, i)
		cells = append(cells, cell{
			name:  fmt.Sprintf("STREAM%dK/%s", words/1024, vBL.label),
			wl:    fmt.Sprintf("STREAM%dK", words/1024),
			v:     vBL,
			build: func() *workload.Instance { return newStream(sh, stream).instance() },
			cfg:   simConfig(vBL),
		})
	}
	return cells
}

// paperMix is the write_mix shape on the paper machine: a 64 KB read
// set (four L1s, half of what the L2 holds of a contiguous region, see
// streamWords), 32 CTAs sharing every owned block, and a 1.125 MB
// streaming kernel that overflows even the L2's nominal 1 MB.
var paperMix = mixShape{
	CTAs: 32, WarpsPerCTA: 2, Ops: 20,
	ReadWords: 16384, OwnWords: 4, HotWords: 64,
	StreamWords: 294912,
}

// writeMixInstances is how many generator instances one round runs
// under each protocol.
const writeMixInstances = 2

// writeMixCells runs n generated instances under G-TSC at RC and SC,
// TC-Strong, and the MESI directory. The directory cells omit the
// streaming kernel: streaming past the L2 under MESI-dir replays
// stalled fills for seconds per simulation (see README.md), which
// would leave too few simulations in a run.
func writeMixCells(shape mixShape, seed uint64, n int) []cell {
	var cells []cell
	for i := 0; i < n; i++ {
		stream := genSeed(seed, i)
		for _, v := range []variant{vGTSCRC, vGTSCSC, vTCSC, vDIRRC} {
			sh := shape
			if v.proto == memsys.DIR {
				sh.StreamWords = 0
			}
			cells = append(cells, cell{
				name:  fmt.Sprintf("MIX%d/%s", i, v.label),
				wl:    fmt.Sprintf("MIX%d", i),
				v:     v,
				build: func() *workload.Instance { return newWriteMix(sh, stream).instance() },
				cfg:   simConfig(v),
			})
		}
	}
	return cells
}

// genSeed derives the generator stream of instance i from the
// benchmark seed (splitmix64 finalizer, so neighbouring seeds share
// nothing).
func genSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// relaxedCells are the Fig-12 cells at G-TSC-RC (all twelve workloads)
// and TC-RC (the coherence six) under bounded slack with one domain
// worker per CPU.
func relaxedCells(workers int) []cell {
	var cells []cell
	add := func(wls []*workload.Workload, v variant) {
		for _, wl := range wls {
			c := newCell(wl, 2, v)
			c.cfg.SlackCycles = relaxSlack
			c.cfg.SimWorkers = workers
			cells = append(cells, c)
		}
	}
	add(workload.All(), vGTSCRC)
	add(workload.CoherenceSet(), vTCRC)
	return cells
}

// exactCell is c on the bit-exact engine: the reference its relaxed
// cycle count deviates from.
func exactCell(c cell) cell {
	c.cfg.SlackCycles = 0
	c.cfg.SimWorkers = 0
	return c
}

// speedupVsTC is the geometric mean, over the coherence six, of TC-RC
// cycles over G-TSC-RC cycles (Fig 12's headline ratio), or 0 when the
// cells do not hold both series.
func speedupVsTC(cycles map[string]uint64) float64 {
	var logSum float64
	n := 0
	for _, wl := range workload.CoherenceSet() {
		tc, okTC := cycles[wl.Name+"/"+vTCRC.label]
		g, okG := cycles[wl.Name+"/"+vGTSCRC.label]
		if !okTC || !okG || g == 0 {
			return 0
		}
		logSum += math.Log(float64(tc) / float64(g))
		n++
	}
	return math.Exp(logSum / float64(n))
}
