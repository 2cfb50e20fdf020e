// Package stats collects the counters the evaluation reports: cycles,
// stalls, cache hit/miss breakdowns, coherence traffic, DRAM accesses
// and the raw event counts the energy model converts to joules.
//
// Every component of the simulator owns one of the typed stat groups
// below and increments plain uint64 fields; the simulator is
// single-goroutine per run, so no synchronization is needed.
package stats

import (
	"fmt"
	"strings"
)

// L1Stats counts events at one private (per-SM) L1 cache.
type L1Stats struct {
	// Loads and Stores count the coalesced accesses the L1 accepted; a
	// presentation it rejects counts only MSHRStalls.
	Loads  uint64
	Stores uint64

	Hits        uint64 // load hits serviced locally
	MissCold    uint64 // tag miss (block absent)
	MissExpired uint64 // tag hit, lease/timestamp check failed (coherence miss)
	MissLocked  uint64 // tag hit, block locked by a pending store (update visibility)
	MSHRMerges  uint64 // loads merged into an existing MSHR entry
	// MSHRStalls counts presentations the L1 turned away for want of an
	// MSHR entry (BL: an outstanding-access slot). The LDST unit
	// presents a rejected access again only after a Deliver into the
	// L1, so this counts rejected presentations, not stalled cycles.
	MSHRStalls uint64

	Atomics      uint64 // atomic read-modify-writes forwarded to L2
	Renewals     uint64 // renewal requests sent (G-TSC)
	RenewalHits  uint64 // renewal responses that completed waiters without data
	Fills        uint64 // fill responses received
	WriteAcks    uint64 // store acknowledgements received
	SelfInval    uint64 // blocks self-invalidated on expiry (TC) or reset (G-TSC)
	InvsReceived uint64 // invalidations received (directory baseline)
	Writebacks   uint64 // dirty blocks written back (directory baseline)
	Flushes      uint64 // whole-cache flushes (kernel boundary, timestamp reset)
	TagProbes    uint64 // tag array lookups of accepted accesses (energy)
	DataAccesses uint64 // data array reads/writes (energy)
	TSUpdates    uint64 // timestamp metadata updates (energy; G-TSC only)
}

// Misses returns the total load misses of any cause.
func (s *L1Stats) Misses() uint64 { return s.MissCold + s.MissExpired + s.MissLocked }

// Add accumulates other into s.
func (s *L1Stats) Add(o *L1Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Hits += o.Hits
	s.MissCold += o.MissCold
	s.MissExpired += o.MissExpired
	s.MissLocked += o.MissLocked
	s.MSHRMerges += o.MSHRMerges
	s.MSHRStalls += o.MSHRStalls
	s.Atomics += o.Atomics
	s.Renewals += o.Renewals
	s.RenewalHits += o.RenewalHits
	s.Fills += o.Fills
	s.WriteAcks += o.WriteAcks
	s.SelfInval += o.SelfInval
	s.InvsReceived += o.InvsReceived
	s.Writebacks += o.Writebacks
	s.Flushes += o.Flushes
	s.TagProbes += o.TagProbes
	s.DataAccesses += o.DataAccesses
	s.TSUpdates += o.TSUpdates
}

// L2Stats counts events at one shared L2 cache bank.
type L2Stats struct {
	Reads         uint64 // BusRd requests processed
	Writes        uint64 // BusWr requests processed
	Atomics       uint64 // BusAtom read-modify-writes performed
	Hits          uint64
	Misses        uint64
	RenewalsSent  uint64 // dataless renewal responses (G-TSC)
	FillsSent     uint64 // data fill responses
	Evictions     uint64
	EvictStalls   uint64 // cycles a fill stalled because no victim was evictable (TC inclusion)
	WriteStalls   uint64 // cycles writes waited on unexpired leases (TC-Strong)
	WritebackDRAM uint64
	TagProbes     uint64
	DataAccesses  uint64
	TSResets      uint64 // timestamp overflow resets (G-TSC)

	// Directory-protocol traffic (invalidation baseline only).
	Invalidations uint64 // BusInv sent to sharers
	Recalls       uint64 // L2 evictions that had to recall L1 copies
}

// Add accumulates other into s.
func (s *L2Stats) Add(o *L2Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Atomics += o.Atomics
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.RenewalsSent += o.RenewalsSent
	s.FillsSent += o.FillsSent
	s.Evictions += o.Evictions
	s.EvictStalls += o.EvictStalls
	s.WriteStalls += o.WriteStalls
	s.WritebackDRAM += o.WritebackDRAM
	s.TagProbes += o.TagProbes
	s.DataAccesses += o.DataAccesses
	s.TSResets += o.TSResets
	s.Invalidations += o.Invalidations
	s.Recalls += o.Recalls
}

// NoCStats counts interconnect traffic. Flits are the unit the paper's
// Fig 15 normalizes; bytes are kept for sanity checks.
type NoCStats struct {
	MsgsToL2   uint64
	MsgsToL1   uint64
	FlitsToL2  uint64
	FlitsToL1  uint64
	BytesToL2  uint64
	BytesToL1  uint64
	QueueDelay uint64 // total cycles messages waited for a free port
}

// TotalFlits returns all flits moved in both directions.
func (s *NoCStats) TotalFlits() uint64 { return s.FlitsToL2 + s.FlitsToL1 }

// Add accumulates other into s.
func (s *NoCStats) Add(o *NoCStats) {
	s.MsgsToL2 += o.MsgsToL2
	s.MsgsToL1 += o.MsgsToL1
	s.FlitsToL2 += o.FlitsToL2
	s.FlitsToL1 += o.FlitsToL1
	s.BytesToL2 += o.BytesToL2
	s.BytesToL1 += o.BytesToL1
	s.QueueDelay += o.QueueDelay
}

// DRAMStats counts accesses at one memory partition.
type DRAMStats struct {
	Reads      uint64
	Writes     uint64
	BusyCycles uint64
	// Row-buffer outcomes (banked mode only).
	RowHits   uint64
	RowMisses uint64
}

// Add accumulates other into s.
func (s *DRAMStats) Add(o *DRAMStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BusyCycles += o.BusyCycles
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
}

// SMStats counts per-SM pipeline behaviour; MemStallCycles is the Fig 13
// metric (cycles the SM had runnable work resident but every warp was
// blocked behind the memory system).
type SMStats struct {
	Cycles             uint64
	ActiveCycles       uint64 // cycles at least one instruction issued
	MemStallCycles     uint64
	FenceStallCycles   uint64
	BarrierStallCycles uint64
	InstrIssued        uint64
	LoadsIssued        uint64
	StoresIssued       uint64
	AtomicsIssued      uint64
	FencesIssued       uint64
	WarpsRetired       uint64
	CTAsRetired        uint64
}

// Add accumulates other into s.
func (s *SMStats) Add(o *SMStats) {
	s.Cycles += o.Cycles
	s.ActiveCycles += o.ActiveCycles
	s.MemStallCycles += o.MemStallCycles
	s.FenceStallCycles += o.FenceStallCycles
	s.BarrierStallCycles += o.BarrierStallCycles
	s.InstrIssued += o.InstrIssued
	s.LoadsIssued += o.LoadsIssued
	s.StoresIssued += o.StoresIssued
	s.AtomicsIssued += o.AtomicsIssued
	s.FencesIssued += o.FencesIssued
	s.WarpsRetired += o.WarpsRetired
	s.CTAsRetired += o.CTAsRetired
}

// Run aggregates every counter from one simulation run.
type Run struct {
	Kernel      string
	Protocol    string
	Consistency string
	Cycles      uint64

	SM   SMStats
	L1   L1Stats
	L2   L2Stats
	NoC  NoCStats
	DRAM DRAMStats

	EnergyJ EnergyBreakdown
}

// Accumulate adds o's counters into r (identity fields are left
// alone). Multi-kernel workloads sum per-kernel runs into one
// aggregate; partial-figure assembly sums whatever completed.
func (r *Run) Accumulate(o *Run) {
	r.Cycles += o.Cycles
	r.SM.Add(&o.SM)
	r.L1.Add(&o.L1)
	r.L2.Add(&o.L2)
	r.NoC.Add(&o.NoC)
	r.DRAM.Add(&o.DRAM)
	r.EnergyJ.L1 += o.EnergyJ.L1
	r.EnergyJ.L2 += o.EnergyJ.L2
	r.EnergyJ.NoC += o.EnergyJ.NoC
	r.EnergyJ.DRAM += o.EnergyJ.DRAM
	r.EnergyJ.Core += o.EnergyJ.Core
	r.EnergyJ.Static += o.EnergyJ.Static
}

// EnergyBreakdown holds joules per component, filled in by the energy model.
type EnergyBreakdown struct {
	L1     float64
	L2     float64
	NoC    float64
	DRAM   float64
	Core   float64
	Static float64
}

// Total returns whole-chip energy in joules.
func (e EnergyBreakdown) Total() float64 {
	return e.L1 + e.L2 + e.NoC + e.DRAM + e.Core + e.Static
}

// String renders a compact human-readable report of the run.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s/%s: %d cycles\n", r.Kernel, r.Protocol, r.Consistency, r.Cycles)
	fmt.Fprintf(&b, "  SM: issued=%d memStall=%d active=%d\n", r.SM.InstrIssued, r.SM.MemStallCycles, r.SM.ActiveCycles)
	fmt.Fprintf(&b, "  L1: loads=%d hits=%d missCold=%d missExp=%d renewals=%d\n",
		r.L1.Loads, r.L1.Hits, r.L1.MissCold, r.L1.MissExpired, r.L1.Renewals)
	fmt.Fprintf(&b, "  L2: reads=%d writes=%d hits=%d misses=%d wrStall=%d evStall=%d\n",
		r.L2.Reads, r.L2.Writes, r.L2.Hits, r.L2.Misses, r.L2.WriteStalls, r.L2.EvictStalls)
	fmt.Fprintf(&b, "  NoC: flits=%d  DRAM: rd=%d wr=%d\n", r.NoC.TotalFlits(), r.DRAM.Reads, r.DRAM.Writes)
	fmt.Fprintf(&b, "  Energy: %.3g J (L1 %.3g, NoC %.3g, DRAM %.3g)\n",
		r.EnergyJ.Total(), r.EnergyJ.L1, r.EnergyJ.NoC, r.EnergyJ.DRAM)
	return b.String()
}
