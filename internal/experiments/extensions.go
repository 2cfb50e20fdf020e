package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/gtsc-sim/gtsc/internal/dram"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// The experiments in this file go beyond the paper's evaluation:
// extensions the paper names but does not measure (TSO, lease
// policies) and design-space sweeps DESIGN.md calls out (scalability,
// scheduler choice, microbenchmark characterization).

// AblationLease compares G-TSC's fixed lease against the adaptive
// per-block policy (Tardis-2.0-style prediction): read-mostly blocks
// earn long leases and dodge the renewals that warp-timestamp advances
// cause.
type AblationLease struct {
	Workloads []string
	// Renewal requests and NoC flits under each policy; cycles too.
	FixedRenewals    map[string]uint64
	AdaptiveRenewals map[string]uint64
	FixedFlits       map[string]uint64
	AdaptiveFlits    map[string]uint64
	FixedCycles      map[string]uint64
	AdaptiveCycles   map[string]uint64
	// RenewalCut is the geomean reduction in renewal requests.
	RenewalCut float64
}

// RunAblationLease executes the comparison over the coherence set
// under G-TSC-RC.
func (s *Session) RunAblationLease() (*AblationLease, error) {
	vAdaptive := variant{proto: memsys.GTSC, cons: gpu.RC, adaptive: true}
	g, err := s.grid(cells(workload.CoherenceSet(), vGTSCRC, vAdaptive))
	if err != nil {
		return nil, err
	}
	out := &AblationLease{
		FixedRenewals:    map[string]uint64{},
		AdaptiveRenewals: map[string]uint64{},
		FixedFlits:       map[string]uint64{},
		AdaptiveFlits:    map[string]uint64{},
		FixedCycles:      map[string]uint64{},
		AdaptiveCycles:   map[string]uint64{},
	}
	var ratios []float64
	g.pairs(point{}, workload.CoherenceSet(), vGTSCRC, vAdaptive, func(wl *workload.Workload, fixed, adaptive *stats.Run) {
		out.Workloads = append(out.Workloads, wl.Name)
		out.FixedRenewals[wl.Name] = fixed.L1.Renewals
		out.AdaptiveRenewals[wl.Name] = adaptive.L1.Renewals
		out.FixedFlits[wl.Name] = fixed.NoC.TotalFlits()
		out.AdaptiveFlits[wl.Name] = adaptive.NoC.TotalFlits()
		out.FixedCycles[wl.Name] = fixed.Cycles
		out.AdaptiveCycles[wl.Name] = adaptive.Cycles
		ratios = append(ratios, float64(adaptive.L1.Renewals+1)/float64(fixed.L1.Renewals+1))
	})
	out.RenewalCut = 1 - geomean(ratios)
	return out, nil
}

// Print renders the ablation.
func (r *AblationLease) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: fixed vs adaptive (Tardis-2.0-style) lease policy, G-TSC-RC")
	t := newTable(w)
	t.row("Benchmark", "renewals fixed", "renewals adaptive", "flits fixed", "flits adaptive", "cycles fixed", "cycles adaptive")
	for _, n := range r.Workloads {
		t.row(n,
			fmt.Sprintf("%d", r.FixedRenewals[n]),
			fmt.Sprintf("%d", r.AdaptiveRenewals[n]),
			fmt.Sprintf("%d", r.FixedFlits[n]),
			fmt.Sprintf("%d", r.AdaptiveFlits[n]),
			fmt.Sprintf("%d", r.FixedCycles[n]),
			fmt.Sprintf("%d", r.AdaptiveCycles[n]))
	}
	t.flush()
	fmt.Fprintf(w, "geomean renewal-request reduction from adaptive leases: %.0f%%\n", 100*r.RenewalCut)
}

// ConsistencySpectrum places TSO between SC and RC for G-TSC — the
// intermediate point the paper mentions (§II-B) but does not measure.
type ConsistencySpectrum struct {
	Workloads []string
	// Norm[workload][model] = cycles(SC) / cycles(model): speedup over
	// SC (SC row is 1.0 by construction).
	Norm map[string]map[string]float64
	// Geomean speedups over SC.
	TSOoverSC float64
	RCoverSC  float64
}

// RunConsistencySpectrum executes the comparison over the coherence
// set under G-TSC.
func (s *Session) RunConsistencySpectrum() (*ConsistencySpectrum, error) {
	vTSO := variant{proto: memsys.GTSC, cons: gpu.TSO}
	g, err := s.grid(cells(workload.CoherenceSet(), vGTSCSC, vGTSCRC, vTSO))
	if err != nil {
		return nil, err
	}
	out := &ConsistencySpectrum{Norm: map[string]map[string]float64{}}
	var tso, rc []float64
	for _, wl := range workload.CoherenceSet() {
		sc, tsoRun, rcRun := g.run(wl, vGTSCSC), g.run(wl, vTSO), g.run(wl, vGTSCRC)
		if sc == nil || tsoRun == nil || rcRun == nil {
			continue
		}
		out.Workloads = append(out.Workloads, wl.Name)
		row := map[string]float64{"SC": 1.0, "TSO": cycleRatio(sc, tsoRun), "RC": cycleRatio(sc, rcRun)}
		out.Norm[wl.Name] = row
		tso = append(tso, row["TSO"])
		rc = append(rc, row["RC"])
	}
	out.TSOoverSC = geomean(tso)
	out.RCoverSC = geomean(rc)
	return out, nil
}

// Print renders the spectrum.
func (r *ConsistencySpectrum) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: consistency spectrum under G-TSC (speedup over SC)")
	t := newTable(w)
	t.row("Benchmark", "SC", "TSO", "RC")
	for _, n := range r.Workloads {
		t.row(n,
			fmt.Sprintf("%.2f", r.Norm[n]["SC"]),
			fmt.Sprintf("%.2f", r.Norm[n]["TSO"]),
			fmt.Sprintf("%.2f", r.Norm[n]["RC"]))
	}
	t.flush()
	fmt.Fprintf(w, "geomean: TSO %.2fx over SC, RC %.2fx over SC (TSO sits between, as expected)\n",
		r.TSOoverSC, r.RCoverSC)
}

// Scalability sweeps the SM count and reports how the G-TSC/TC gap
// evolves — the motivation of the paper's introduction (coherence
// traffic grows with thread count).
type Scalability struct {
	SMCounts []int
	// Speedup[sms] = geomean over the coherence set of
	// cycles(TC-RC)/cycles(G-TSC-RC) at that machine size.
	Speedup map[int]float64
	// GTSCFlitsPerSM and TCFlitsPerSM report how per-SM coherence
	// traffic scales.
	GTSCFlits map[int]uint64
	TCFlits   map[int]uint64
}

// RunScalability executes the sweep. Machine sizes use half as many
// banks as SMs (the paper's 16/8 ratio).
func (s *Session) RunScalability() (*Scalability, error) {
	out := &Scalability{
		SMCounts:  []int{4, 8, 16, 32},
		Speedup:   map[int]float64{},
		GTSCFlits: map[int]uint64{},
		TCFlits:   map[int]uint64{},
	}
	g, err := s.grid(sweep(smPoints(out.SMCounts), vGTSCRC, vTCRC)...)
	if err != nil {
		return nil, err
	}
	for _, sms := range out.SMCounts {
		var ratios []float64
		var gFlits, tFlits uint64
		g.pairs(smPoint(sms), workload.CoherenceSet(), vGTSCRC, vTCRC, func(_ *workload.Workload, gr, tc *stats.Run) {
			ratios = append(ratios, cycleRatio(tc, gr))
			gFlits += gr.NoC.TotalFlits()
			tFlits += tc.NoC.TotalFlits()
		})
		out.Speedup[sms] = geomean(ratios)
		out.GTSCFlits[sms] = gFlits
		out.TCFlits[sms] = tFlits
	}
	return out, nil
}

// smPoint is a machine with sms SMs and half as many banks (min 2),
// growing the workload with the machine so every size is fully
// occupied.
func smPoint(sms int) point {
	return point{suffix: fmt.Sprintf("@%d", sms), scale: sms / 8, edit: func(cfg *sim.Config) {
		cfg.Mem.NumSMs = sms
		cfg.Mem.NumBanks = max(sms/2, 2)
	}}
}

func smPoints(counts []int) []point {
	ps := make([]point, len(counts))
	for i, sms := range counts {
		ps[i] = smPoint(sms)
	}
	return ps
}

// sweep names the coherence set under vs at every machine point of ps.
func sweep(ps []point, vs ...variant) []block {
	bs := make([]block, len(ps))
	for i, p := range ps {
		bs[i] = block{p, workload.CoherenceSet(), vs}
	}
	return bs
}

// Print renders the sweep.
func (r *Scalability) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: G-TSC advantage vs machine size (coherence set, RC)")
	t := newTable(w)
	t.row("SMs", "G-TSC speedup over TC", "G-TSC flits", "TC flits")
	for _, sms := range r.SMCounts {
		t.row(fmt.Sprintf("%d", sms),
			fmt.Sprintf("%.2fx", r.Speedup[sms]),
			fmt.Sprintf("%d", r.GTSCFlits[sms]),
			fmt.Sprintf("%d", r.TCFlits[sms]))
	}
	t.flush()
}

// MicroTable characterizes the protocols on the microbenchmark suite
// (atomics, false sharing, broadcast, streaming, hot-word contention).
type MicroTable struct {
	Micros []string
	// Cycles[micro][protocol label].
	Cycles map[string]map[string]uint64
	// Key stat per micro/protocol: renewals for G-TSC, self-
	// invalidations for TC (rough proxies for coherence work).
	Renewals  map[string]uint64
	SelfInval map[string]uint64
	Atomics   map[string]uint64
}

// RunMicroTable executes the characterization.
func (s *Session) RunMicroTable() (*MicroTable, error) {
	g, err := s.grid(block{microPoint, workload.Micro(), []variant{vGTSCRC, vTCRC, vBL}})
	if err != nil {
		return nil, err
	}
	out := &MicroTable{
		Cycles:    map[string]map[string]uint64{},
		Renewals:  map[string]uint64{},
		SelfInval: map[string]uint64{},
		Atomics:   map[string]uint64{},
	}
	for _, m := range workload.Micro() {
		gr, tc, bl := g.at(microPoint, m, vGTSCRC), g.at(microPoint, m, vTCRC), g.at(microPoint, m, vBL)
		if gr == nil || tc == nil || bl == nil {
			continue
		}
		out.Micros = append(out.Micros, m.Name)
		out.Cycles[m.Name] = map[string]uint64{"G-TSC-RC": gr.Cycles, "TC-RC": tc.Cycles, "BL": bl.Cycles}
		out.Renewals[m.Name] = gr.L1.Renewals
		out.Atomics[m.Name] = gr.L2.Atomics
		out.SelfInval[m.Name] = tc.L1.SelfInval
	}
	return out, nil
}

// microPoint keys the microbenchmarks apart on the session machine.
var microPoint = point{prefix: "micro/"}

// Print renders the characterization.
func (r *MicroTable) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: microbenchmark characterization (cycles; G-TSC renewals / TC self-invalidations / atomics)")
	t := newTable(w)
	t.row("Micro", "G-TSC-RC", "TC-RC", "BL", "renewals", "selfinval", "atomics")
	for _, n := range r.Micros {
		t.row(n,
			fmt.Sprintf("%d", r.Cycles[n]["G-TSC-RC"]),
			fmt.Sprintf("%d", r.Cycles[n]["TC-RC"]),
			fmt.Sprintf("%d", r.Cycles[n]["BL"]),
			fmt.Sprintf("%d", r.Renewals[n]),
			fmt.Sprintf("%d", r.SelfInval[n]),
			fmt.Sprintf("%d", r.Atomics[n]))
	}
	t.flush()
}

// Platform sweeps substrate fidelity knobs: crossbar vs 2D mesh NoC,
// flat vs banked row-buffer DRAM — checking the protocol conclusions
// are not artifacts of the idealized substrate.
type Platform struct {
	Configs []string
	// Speedup[config] = geomean cycles(TC-RC)/cycles(G-TSC-RC) on the
	// coherence set under that substrate.
	Speedup map[string]float64
	// Cycles[config] = total G-TSC-RC cycles (substrate cost itself).
	Cycles map[string]uint64
}

// RunPlatform executes the sweep.
func (s *Session) RunPlatform() (*Platform, error) {
	out := &Platform{
		Configs: []string{"xbar+flat", "mesh+flat", "xbar+banked", "mesh+banked"},
		Speedup: map[string]float64{},
		Cycles:  map[string]uint64{},
	}
	ps := make([]point, len(out.Configs))
	for i, pc := range out.Configs {
		mesh, banked := strings.HasPrefix(pc, "mesh"), strings.HasSuffix(pc, "banked")
		ps[i] = point{suffix: fmt.Sprintf("/plat/%t/%t", mesh, banked), edit: func(cfg *sim.Config) {
			if mesh {
				cfg.Mem.NoC = noc.DefaultMeshConfig()
			}
			if banked {
				cfg.Mem.DRAM = dram.DefaultBankedConfig()
			}
		}}
	}
	g, err := s.grid(sweep(ps, vGTSCRC, vTCRC)...)
	if err != nil {
		return nil, err
	}
	for i, pc := range out.Configs {
		var ratios []float64
		var cyc uint64
		g.pairs(ps[i], workload.CoherenceSet(), vGTSCRC, vTCRC, func(_ *workload.Workload, gr, tc *stats.Run) {
			ratios = append(ratios, cycleRatio(tc, gr))
			cyc += gr.Cycles
		})
		out.Speedup[pc] = geomean(ratios)
		out.Cycles[pc] = cyc
	}
	return out, nil
}

// Print renders the sweep.
func (r *Platform) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: substrate sweep — NoC topology x DRAM model (coherence set, RC)")
	t := newTable(w)
	t.row("Substrate", "G-TSC speedup over TC", "G-TSC total cycles")
	for _, pc := range r.Configs {
		t.row(pc, fmt.Sprintf("%.2fx", r.Speedup[pc]), fmt.Sprintf("%d", r.Cycles[pc]))
	}
	t.flush()
}

// CacheSweep varies the L1 geometry (size and MSHR count), checking
// how sensitive G-TSC's advantage is to private-cache provisioning.
type CacheSweep struct {
	Points []string
	// Speedup[point] = geomean cycles(TC-RC)/cycles(G-TSC-RC).
	Speedup map[string]float64
	// HitRate[point] = aggregate G-TSC L1 load hit rate.
	HitRate map[string]float64
}

// RunCacheSweep executes the sweep over the coherence set.
func (s *Session) RunCacheSweep() (*CacheSweep, error) {
	geometries := []struct {
		name  string
		sets  int
		mshrs int
	}{
		{"8KB/16mshr", 16, 16},
		{"16KB/32mshr", 32, 32}, // the paper's configuration
		{"32KB/32mshr", 64, 32},
		{"64KB/64mshr", 128, 64},
	}
	ps := make([]point, len(geometries))
	for i, geo := range geometries {
		ps[i] = point{suffix: fmt.Sprintf("/cache/%d/%d", geo.sets, geo.mshrs), edit: func(cfg *sim.Config) {
			cfg.Mem.L1Sets = geo.sets
			cfg.Mem.L1MSHRs = geo.mshrs
		}}
	}
	g, err := s.grid(sweep(ps, vGTSCRC, vTCRC)...)
	if err != nil {
		return nil, err
	}
	out := &CacheSweep{Speedup: map[string]float64{}, HitRate: map[string]float64{}}
	for i, geo := range geometries {
		out.Points = append(out.Points, geo.name)
		var ratios []float64
		var hits, loads uint64
		g.pairs(ps[i], workload.CoherenceSet(), vGTSCRC, vTCRC, func(_ *workload.Workload, gr, tc *stats.Run) {
			ratios = append(ratios, cycleRatio(tc, gr))
			hits += gr.L1.Hits
			loads += gr.L1.Loads
		})
		out.Speedup[geo.name] = geomean(ratios)
		out.HitRate[geo.name] = float64(hits) / float64(loads)
	}
	return out, nil
}

// Print renders the sweep.
func (r *CacheSweep) Print(w io.Writer) {
	fmt.Fprintln(w, "Extension: L1 geometry sweep (coherence set, RC)")
	t := newTable(w)
	t.row("L1 config", "G-TSC speedup over TC", "G-TSC L1 hit rate")
	for _, pt := range r.Points {
		t.row(pt, fmt.Sprintf("%.2fx", r.Speedup[pt]), fmt.Sprintf("%.0f%%", 100*r.HitRate[pt]))
	}
	t.flush()
}

// DirectoryCompare quantifies §II-C: conventional invalidation-based
// directory coherence versus G-TSC on the same machine — the
// invalidation/recall traffic, the write-latency cost of collecting
// acknowledgments, and the directory storage that grows with SM count
// while G-TSC's timestamps do not.
type DirectoryCompare struct {
	Workloads []string
	// Cycles and flits per workload for each protocol.
	DirCycles  map[string]uint64
	GTSCCycles map[string]uint64
	DirFlits   map[string]uint64
	GTSCFlits  map[string]uint64
	// Directory-only event counts.
	Invalidations map[string]uint64
	Recalls       map[string]uint64
	Writebacks    map[string]uint64
	// GTSCSpeedup is the geomean cycles(DIR)/cycles(G-TSC) over the
	// coherence set.
	GTSCSpeedup float64
	// Storage overhead per L2 line, in bits.
	DirBitsPerLine  int
	GTSCBitsPerLine int
	// Scaling: how the directory's costs grow with the SM count.
	SMCounts  []int
	SpeedupAt map[int]float64 // geomean cycles(DIR)/cycles(G-TSC)
	InvsAt    map[int]uint64  // total invalidations
	DirBitsAt map[int]int     // directory bits per L2 line
}

// RunDirectoryCompare executes the comparison (RC both sides).
func (s *Session) RunDirectoryCompare() (*DirectoryCompare, error) {
	vDIR := variant{proto: memsys.DIR, cons: gpu.RC}
	smCounts := []int{4, 8, 16, 32}
	g, err := s.grid(sweep(append([]point{{}}, smPoints(smCounts)...), vDIR, vGTSCRC)...)
	if err != nil {
		return nil, err
	}
	out := &DirectoryCompare{
		DirCycles:     map[string]uint64{},
		GTSCCycles:    map[string]uint64{},
		DirFlits:      map[string]uint64{},
		GTSCFlits:     map[string]uint64{},
		Invalidations: map[string]uint64{},
		Recalls:       map[string]uint64{},
		Writebacks:    map[string]uint64{},
	}
	var ratios []float64
	g.pairs(point{}, workload.CoherenceSet(), vDIR, vGTSCRC, func(wl *workload.Workload, d, gr *stats.Run) {
		out.Workloads = append(out.Workloads, wl.Name)
		out.DirCycles[wl.Name] = d.Cycles
		out.GTSCCycles[wl.Name] = gr.Cycles
		out.DirFlits[wl.Name] = d.NoC.TotalFlits()
		out.GTSCFlits[wl.Name] = gr.NoC.TotalFlits()
		out.Invalidations[wl.Name] = d.L2.Invalidations
		out.Recalls[wl.Name] = d.L2.Recalls
		out.Writebacks[wl.Name] = d.L1.Writebacks
		ratios = append(ratios, cycleRatio(d, gr))
	})
	out.GTSCSpeedup = geomean(ratios)
	// Full-map directory: one sharer bit per SM plus an owner id and a
	// valid bit. G-TSC: two 16-bit timestamps per line, independent of
	// the SM count.
	dirBits := func(sms int) int {
		ownerBits := 1
		for 1<<ownerBits < sms {
			ownerBits++
		}
		return sms + ownerBits + 1
	}
	out.DirBitsPerLine = dirBits(s.Cfg.Machine.Mem.NumSMs)
	out.GTSCBitsPerLine = 32

	// Scaling sweep: the paper's argument is that invalidation costs
	// grow with the thread count; measure it.
	out.SMCounts = smCounts
	out.SpeedupAt = map[int]float64{}
	out.InvsAt = map[int]uint64{}
	out.DirBitsAt = map[int]int{}
	for _, sms := range out.SMCounts {
		var sweep []float64
		var invs uint64
		g.pairs(smPoint(sms), workload.CoherenceSet(), vDIR, vGTSCRC, func(_ *workload.Workload, d, gr *stats.Run) {
			sweep = append(sweep, cycleRatio(d, gr))
			invs += d.L2.Invalidations
		})
		out.SpeedupAt[sms] = geomean(sweep)
		out.InvsAt[sms] = invs
		out.DirBitsAt[sms] = dirBits(sms)
	}
	return out, nil
}

// Print renders the comparison.
func (r *DirectoryCompare) Print(w io.Writer) {
	fmt.Fprintln(w, "SecII-C characterization: invalidation-based directory (MESI-dir) vs G-TSC, RC")
	t := newTable(w)
	t.row("Benchmark", "dir cycles", "gtsc cycles", "dir flits", "gtsc flits", "invs", "recalls", "writebacks")
	for _, n := range r.Workloads {
		t.row(n,
			fmt.Sprintf("%d", r.DirCycles[n]),
			fmt.Sprintf("%d", r.GTSCCycles[n]),
			fmt.Sprintf("%d", r.DirFlits[n]),
			fmt.Sprintf("%d", r.GTSCFlits[n]),
			fmt.Sprintf("%d", r.Invalidations[n]),
			fmt.Sprintf("%d", r.Recalls[n]),
			fmt.Sprintf("%d", r.Writebacks[n]))
	}
	t.flush()
	fmt.Fprintf(w, "G-TSC speedup over the directory: %.2fx geomean (coherence set)\n", r.GTSCSpeedup)
	fmt.Fprintf(w, "directory storage: %d bits/L2 line (grows with SM count) vs G-TSC %d bits/line (constant)\n",
		r.DirBitsPerLine, r.GTSCBitsPerLine)
	fmt.Fprintln(w, "scaling with SM count:")
	t2 := newTable(w)
	t2.row("SMs", "G-TSC speedup over dir", "invalidations", "dir bits/line")
	for _, sms := range r.SMCounts {
		t2.row(fmt.Sprintf("%d", sms),
			fmt.Sprintf("%.2fx", r.SpeedupAt[sms]),
			fmt.Sprintf("%d", r.InvsAt[sms]),
			fmt.Sprintf("%d", r.DirBitsAt[sms]))
	}
	t2.flush()
}
