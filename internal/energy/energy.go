// Package energy is the repository's stand-in for GPUWattch: it
// converts the event counts a run accumulates into joules using
// per-event and per-cycle constants.
//
// The constants below are synthetic but magnitude-plausible for a
// ~40nm-class GPU (the paper's GTX480-era setup): SRAM accesses cost
// tens of picojoules, NoC flits tens of picojoules, DRAM accesses tens
// of nanojoules, and static/constant power contributes tens of
// nanojoules per cycle across the chip. The paper's Figs 16–17 compare
// protocols *relative* to one another and to the no-L1 baseline; those
// ratios are driven by the event counts and the cycle count, which the
// simulator measures, not by the absolute constants. See DESIGN.md
// ("Substitutions").
//
// The L1 events are those of accesses the L1 accepted. A presentation
// the L1 rejects for want of an MSHR entry is modelled as probing no
// tag, and charges nothing (coherence.Reject): the LDST unit presents
// it again only after a delivery, and the cycles it waits cost static
// energy only.
package energy

import "github.com/gtsc-sim/gtsc/internal/stats"

// Model holds the energy constants, in joules per event or per cycle.
type Model struct {
	// L1 (per event)
	L1TagProbe   float64
	L1DataAccess float64
	L1TSUpdate   float64 // timestamp/lease metadata writes (G-TSC > TC)
	L1MSHROp     float64

	// L2 (per event)
	L2TagProbe   float64
	L2DataAccess float64

	// NoC (per flit)
	NoCFlit float64

	// DRAM (per block access)
	DRAMAccess float64

	// Core dynamic (per instruction issued)
	CoreInstr float64

	// Static power shares (per cycle, whole chip, split by component)
	StaticCore float64
	StaticL1   float64
	StaticL2   float64
	StaticNoC  float64
	StaticDRAM float64
}

// Default returns the model used by every experiment.
func Default() Model {
	const (
		pJ = 1e-12
		nJ = 1e-9
	)
	return Model{
		L1TagProbe:   8 * pJ,
		L1DataAccess: 35 * pJ,
		L1TSUpdate:   3 * pJ,
		L1MSHROp:     4 * pJ,
		L2TagProbe:   14 * pJ,
		L2DataAccess: 60 * pJ,
		NoCFlit:      26 * pJ,
		DRAMAccess:   20 * nJ,
		CoreInstr:    80 * pJ,
		StaticCore:   18 * nJ,
		StaticL1:     0.15 * nJ,
		StaticL2:     3 * nJ,
		StaticNoC:    2.5 * nJ,
		StaticDRAM:   6 * nJ,
	}
}

// Apply computes the energy breakdown for run and stores it in
// run.EnergyJ.
func (m Model) Apply(run *stats.Run) {
	cyc := float64(run.Cycles)
	l1 := float64(run.L1.TagProbes)*m.L1TagProbe +
		float64(run.L1.DataAccesses)*m.L1DataAccess +
		float64(run.L1.TSUpdates)*m.L1TSUpdate +
		float64(run.L1.MSHRMerges+run.L1.Misses())*m.L1MSHROp +
		cyc*m.StaticL1
	l2 := float64(run.L2.TagProbes)*m.L2TagProbe +
		float64(run.L2.DataAccesses)*m.L2DataAccess +
		cyc*m.StaticL2
	noc := float64(run.NoC.TotalFlits())*m.NoCFlit + cyc*m.StaticNoC
	dramE := float64(run.DRAM.Reads+run.DRAM.Writes)*m.DRAMAccess + cyc*m.StaticDRAM
	core := float64(run.SM.InstrIssued)*m.CoreInstr + cyc*m.StaticCore

	run.EnergyJ = stats.EnergyBreakdown{
		L1:   l1,
		L2:   l2,
		NoC:  noc,
		DRAM: dramE,
		Core: core,
		// Static power is folded into each component above, so Static
		// stays 0: nothing reports the static share on its own yet.
		Static: 0,
	}
}
