package experiments

import (
	"fmt"
	"io"
	"math"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TableII reproduces Table II: absolute execution cycles (in millions)
// of the no-L1 baseline (BL) and TC on every benchmark, on this
// simulator. (The paper's extra columns compare against the original
// TC simulator, which we do not have; EXPERIMENTS.md records the
// paper's numbers next to ours.)
type TableII struct {
	Workloads []string
	BLCycles  map[string]uint64
	TCCycles  map[string]uint64
}

// RunTableII executes the Table II matrix.
func (s *Session) RunTableII() (*TableII, error) {
	g, err := s.grid(cells(workload.All(), vBL, vTCRC))
	if err != nil {
		return nil, err
	}
	out := &TableII{
		Workloads: names(workload.All()),
		BLCycles:  map[string]uint64{},
		TCCycles:  map[string]uint64{},
	}
	// The paper pairs plain TC with each model; its Table II column is
	// TC under the protocol's natural (RC/TC-Weak) setting.
	g.pairs(point{}, workload.All(), vBL, vTCRC, func(wl *workload.Workload, bl, tc *stats.Run) {
		out.BLCycles[wl.Name] = bl.Cycles
		out.TCCycles[wl.Name] = tc.Cycles
	})
	return out, nil
}

// Print renders the table. Rows whose runs failed (KeepGoing partial
// output) are skipped.
func (r *TableII) Print(w io.Writer) {
	fmt.Fprintln(w, "Table II: absolute execution cycles of BL and TC (this simulator)")
	t := newTable(w)
	t.row("Benchmark", "BL (cycles)", "TC (cycles)", "TC/BL")
	for _, n := range r.Workloads {
		if _, ok := r.BLCycles[n]; !ok {
			continue
		}
		t.row(n,
			fmt.Sprintf("%d", r.BLCycles[n]),
			fmt.Sprintf("%d", r.TCCycles[n]),
			fmt.Sprintf("%.2f", float64(r.TCCycles[n])/float64(r.BLCycles[n])))
	}
	t.flush()
}

// A bar is one series of Figs 12–17: its label and the variant it
// plots.
type bar struct {
	label string
	v     variant
}

// fig13Bars are the series of Figs 13–17; Fig 12 adds the
// non-coherent L1, which only the second set can run.
var (
	fig13Bars = []bar{{"G-TSC-RC", vGTSCRC}, {"G-TSC-SC", vGTSCSC}, {"TC-RC", vTCRC}, {"TC-SC", vTCSC}}
	fig12Bars = append([]bar{{"Baseline-w/L1", vL1NC}}, fig13Bars...)
)

// Fig12Series lists the bar order of Fig 12; Fig13Series the series of
// Figs 13, 15, 16 and 17.
var (
	Fig12Series = labels(fig12Bars)
	Fig13Series = labels(fig13Bars)
)

func labels(bars []bar) []string {
	out := make([]string, len(bars))
	for i, b := range bars {
		out[i] = b.label
	}
	return out
}

// variants lists the variants the bars plot.
func variants(bars []bar) []variant {
	vs := make([]variant, len(bars))
	for i, b := range bars {
		vs[i] = b.v
	}
	return vs
}

// barCells is the block of a figure normalized to BL: every benchmark
// under the baseline and each bar's variant.
func barCells(bars []bar) block {
	return cells(workload.All(), append([]variant{vBL}, variants(bars)...)...)
}

// overBL evaluates one metric per series over the BL baseline:
// norm(bar run, BL run) for every benchmark whose BL run completed,
// keyed by workload and bar label. A bar that was not measured, or
// whose run failed, is absent.
func (g *grid) overBL(bars []bar, norm func(r, bl *stats.Run) float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, wl := range workload.All() {
		bl := g.run(wl, vBL)
		if bl == nil {
			continue
		}
		row := map[string]float64{}
		for _, b := range bars {
			if r := g.run(wl, b.v); r != nil {
				row[b.label] = norm(r, bl)
			}
		}
		out[wl.Name] = row
	}
	return out
}

// printBars renders a per-benchmark series table: the coherence set, a
// "--" separator, then the second set, one column per series; "-"
// marks a bar that was not measured.
func printBars(w io.Writer, coherent, nonCoherent, series []string, vals map[string]map[string]float64, format string) {
	t := newTable(w)
	t.row(append([]string{"Benchmark"}, series...)...)
	rows := func(group []string) {
		for _, n := range group {
			cells := []string{n}
			for _, sr := range series {
				if v, ok := vals[n][sr]; ok {
					cells = append(cells, fmt.Sprintf(format, v))
				} else {
					cells = append(cells, "-")
				}
			}
			t.row(cells...)
		}
	}
	rows(coherent)
	t.row("--")
	rows(nonCoherent)
	t.flush()
}

// Fig12 reproduces Figure 12: performance of G-TSC and TC under RC and
// SC, normalized to the no-L1 baseline (higher is better). The
// non-coherent set adds the Baseline-w/L1 bar.
type Fig12 struct {
	Coherent    []string
	NonCoherent []string
	// Norm[workload][series] = BL cycles / series cycles.
	Norm map[string]map[string]float64

	// Headline ratios over the coherence-requiring set (geomean):
	GTSCRCoverTCRC float64 // paper: ~1.38
	GTSCSCoverTCRC float64 // paper: ~1.26
	GTSCRCoverTCSC float64 // paper: ~1.84
	// Overhead of G-TSC-RC vs the non-coherent L1 on the second set
	// (paper: ~11%).
	GTSCvsL1NCOverhead float64
	// RC/SC speedup for G-TSC on the coherence set (paper: ~12%).
	GTSCRCoverSC float64
}

// RunFig12 executes the Fig 12 matrix. Each headline ratio is a
// geomean over the workloads where both of its operands completed.
func (s *Session) RunFig12() (*Fig12, error) {
	g, err := s.grid(barCells(fig12Bars))
	if err != nil {
		return nil, err
	}
	coh := workload.CoherenceSet()
	return &Fig12{
		Coherent:    names(coh),
		NonCoherent: names(workload.NonCoherenceSet()),
		Norm: g.overBL(fig12Bars, func(r, bl *stats.Run) float64 {
			return float64(bl.Cycles) / float64(r.Cycles)
		}),
		GTSCRCoverTCRC:     g.geoRatio(coh, vTCRC, vGTSCRC, cycleRatio),
		GTSCSCoverTCRC:     g.geoRatio(coh, vTCRC, vGTSCSC, cycleRatio),
		GTSCRCoverTCSC:     g.geoRatio(coh, vTCSC, vGTSCRC, cycleRatio),
		GTSCvsL1NCOverhead: g.geoRatio(workload.NonCoherenceSet(), vGTSCRC, vL1NC, cycleRatio) - 1,
		GTSCRCoverSC:       g.geoRatio(coh, vGTSCSC, vGTSCRC, cycleRatio),
	}, nil
}

// Print renders the figure as a table of normalized bars.
func (r *Fig12) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 12: performance normalized to no-L1 baseline (higher is better)")
	printBars(w, r.Coherent, r.NonCoherent, Fig12Series, r.Norm, "%.2f")
	fmt.Fprintf(w, "geomean over coherence set: G-TSC-RC/TC-RC = %.2fx (paper ~1.38x)\n", r.GTSCRCoverTCRC)
	fmt.Fprintf(w, "geomean over coherence set: G-TSC-SC/TC-RC = %.2fx (paper ~1.26x)\n", r.GTSCSCoverTCRC)
	fmt.Fprintf(w, "geomean over coherence set: G-TSC-RC/TC-SC = %.2fx (paper ~1.84x)\n", r.GTSCRCoverTCSC)
	fmt.Fprintf(w, "geomean G-TSC RC-over-SC speedup = %.2fx (paper ~1.12x)\n", r.GTSCRCoverSC)
	fmt.Fprintf(w, "G-TSC overhead vs non-coherent L1 (second set) = %.0f%% (paper ~11%%)\n", 100*r.GTSCvsL1NCOverhead)
}

// Fig13 reproduces Figure 13: pipeline stalls due to memory delay,
// normalized to the no-L1 baseline.
type Fig13 struct {
	Coherent    []string
	NonCoherent []string
	Norm        map[string]map[string]float64 // workload -> series -> stalls/BLstalls
	// TCOverGTSC is TC-RC stalls / G-TSC-RC stalls, geomean per set
	// (paper: ~1.45x on set 1, >2.4x on set 2).
	TCOverGTSCSet1 float64
	TCOverGTSCSet2 float64
}

// RunFig13 executes the Fig 13 matrix. Stall counts are floored at one
// cycle on the BL baseline and on the G-TSC denominator.
func (s *Session) RunFig13() (*Fig13, error) {
	g, err := s.grid(barCells(fig13Bars))
	if err != nil {
		return nil, err
	}
	stalls := func(r *stats.Run) float64 { return float64(r.SM.MemStallCycles) }
	tcOverGTSC := func(tc, gtsc *stats.Run) float64 { return stalls(tc) / max(stalls(gtsc), 1) }
	return &Fig13{
		Coherent:    names(workload.CoherenceSet()),
		NonCoherent: names(workload.NonCoherenceSet()),
		Norm: g.overBL(fig13Bars, func(r, bl *stats.Run) float64 {
			return stalls(r) / max(stalls(bl), 1)
		}),
		TCOverGTSCSet1: g.geoRatio(workload.CoherenceSet(), vTCRC, vGTSCRC, tcOverGTSC),
		TCOverGTSCSet2: g.geoRatio(workload.NonCoherenceSet(), vTCRC, vGTSCRC, tcOverGTSC),
	}, nil
}

// Print renders the figure.
func (r *Fig13) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 13: pipeline stalls due to memory delay, normalized to no-L1 baseline")
	printBars(w, r.Coherent, r.NonCoherent, Fig13Series, r.Norm, "%.2f")
	fmt.Fprintf(w, "TC-RC/G-TSC-RC stalls: set1 %.2fx (paper ~1.45x), set2 %.2fx (paper >1.4x)\n",
		r.TCOverGTSCSet1, r.TCOverGTSCSet2)
}

// Fig14 reproduces Figure 14: G-TSC-RC performance across lease values
// (paper sweeps 8–20 and finds the protocol insensitive).
type Fig14 struct {
	Leases    []uint64
	Workloads []string
	// Norm[workload][lease] = cycles(lease=10) / cycles(lease).
	Norm map[string]map[uint64]float64
	// MaxSpread is the largest relative deviation from 1.0 observed
	// anywhere (paper: negligible).
	MaxSpread float64
}

// RunFig14 executes the lease sweep over the coherence set.
func (s *Session) RunFig14() (*Fig14, error) {
	out := &Fig14{
		Leases: []uint64{8, 10, 12, 14, 16, 18, 20},
		Norm:   map[string]map[uint64]float64{},
	}
	leased := func(lease uint64) variant { return variant{proto: memsys.GTSC, cons: gpu.RC, lease: lease} }
	var vs []variant
	for _, lease := range out.Leases {
		vs = append(vs, leased(lease))
	}
	g, err := s.grid(cells(workload.CoherenceSet(), vs...))
	if err != nil {
		return nil, err
	}
	for _, wl := range workload.CoherenceSet() {
		base := g.run(wl, leased(10))
		if base == nil {
			continue
		}
		out.Workloads = append(out.Workloads, wl.Name)
		row := map[uint64]float64{}
		for _, lease := range out.Leases {
			if r := g.run(wl, leased(lease)); r != nil {
				v := cycleRatio(base, r)
				row[lease] = v
				if d := math.Abs(v - 1); d > out.MaxSpread {
					out.MaxSpread = d
				}
			}
		}
		out.Norm[wl.Name] = row
	}
	return out, nil
}

// Print renders the sweep.
func (r *Fig14) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 14: G-TSC-RC performance vs lease value, normalized to lease=10")
	t := newTable(w)
	head := []string{"Benchmark"}
	for _, l := range r.Leases {
		head = append(head, fmt.Sprintf("L=%d", l))
	}
	t.row(head...)
	for _, n := range r.Workloads {
		cells := []string{n}
		for _, l := range r.Leases {
			cells = append(cells, fmt.Sprintf("%.3f", r.Norm[n][l]))
		}
		t.row(cells...)
	}
	t.flush()
	fmt.Fprintf(w, "max deviation from 1.0 anywhere: %.1f%% (paper: insensitive in 8-20)\n", 100*r.MaxSpread)
}

// Fig15 reproduces Figure 15: NoC traffic (flits) normalized to the
// no-L1 baseline.
type Fig15 struct {
	Coherent    []string
	NonCoherent []string
	Norm        map[string]map[string]float64
	// Traffic reduction of G-TSC vs TC on the coherence set
	// (paper: ~20% under RC, ~15.7% under SC).
	ReductionRC float64
	ReductionSC float64
}

// RunFig15 executes the Fig 15 matrix.
func (s *Session) RunFig15() (*Fig15, error) {
	g, err := s.grid(barCells(fig13Bars))
	if err != nil {
		return nil, err
	}
	flits := func(a, b *stats.Run) float64 { return float64(a.NoC.TotalFlits()) / float64(b.NoC.TotalFlits()) }
	return &Fig15{
		Coherent:    names(workload.CoherenceSet()),
		NonCoherent: names(workload.NonCoherenceSet()),
		Norm:        g.overBL(fig13Bars, flits),
		ReductionRC: 1 - g.geoRatio(workload.CoherenceSet(), vGTSCRC, vTCRC, flits),
		ReductionSC: 1 - g.geoRatio(workload.CoherenceSet(), vGTSCSC, vTCSC, flits),
	}, nil
}

// Print renders the figure.
func (r *Fig15) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 15: NoC traffic (flits) normalized to no-L1 baseline (lower is better)")
	printBars(w, r.Coherent, r.NonCoherent, Fig13Series, r.Norm, "%.2f")
	fmt.Fprintf(w, "G-TSC traffic reduction vs TC (coherence set): RC %.0f%% (paper ~20%%), SC %.0f%% (paper ~15.7%%)\n",
		100*r.ReductionRC, 100*r.ReductionSC)
}

// Fig16 reproduces Figure 16: total GPU energy normalized to the
// no-L1 baseline.
type Fig16 struct {
	Coherent    []string
	NonCoherent []string
	Norm        map[string]map[string]float64
	// GTSCSavingVsTC is G-TSC-RC's energy saving relative to TC-RC on
	// the coherence set (paper: ~11%).
	GTSCSavingVsTC float64
	// GTSCSavingVsBL is the saving vs the no-L1 baseline (paper: ~11%).
	GTSCSavingVsBL float64
}

// RunFig16 executes the Fig 16 matrix.
func (s *Session) RunFig16() (*Fig16, error) {
	g, err := s.grid(barCells(fig13Bars))
	if err != nil {
		return nil, err
	}
	energy := func(a, b *stats.Run) float64 { return a.EnergyJ.Total() / b.EnergyJ.Total() }
	return &Fig16{
		Coherent:       names(workload.CoherenceSet()),
		NonCoherent:    names(workload.NonCoherenceSet()),
		Norm:           g.overBL(fig13Bars, energy),
		GTSCSavingVsTC: 1 - g.geoRatio(workload.CoherenceSet(), vGTSCRC, vTCRC, energy),
		GTSCSavingVsBL: 1 - g.geoRatio(workload.CoherenceSet(), vGTSCRC, vBL, energy),
	}, nil
}

// Print renders the figure.
func (r *Fig16) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 16: total energy normalized to no-L1 baseline (lower is better)")
	printBars(w, r.Coherent, r.NonCoherent, Fig13Series, r.Norm, "%.2f")
	fmt.Fprintf(w, "G-TSC-RC energy saving (coherence set): vs TC-RC %.0f%% (paper ~9-11%%), vs BL %.0f%% (paper ~11%%)\n",
		100*r.GTSCSavingVsTC, 100*r.GTSCSavingVsBL)
}

// Fig17 reproduces Figure 17: absolute L1 cache energy in joules.
type Fig17 struct {
	Coherent    []string
	NonCoherent []string
	// Joules[workload][series] = L1 energy in joules.
	Joules map[string]map[string]float64
	// TCUnderGTSC reports whether TC spends slightly less L1 energy
	// than G-TSC (the paper's observation: G-TSC pays for warp_ts and
	// timestamp updates).
	TCUnderGTSC bool
}

// RunFig17 executes the Fig 17 matrix.
func (s *Session) RunFig17() (*Fig17, error) {
	g, err := s.grid(cells(workload.All(), variants(fig13Bars)...))
	if err != nil {
		return nil, err
	}
	out := &Fig17{
		Coherent:    names(workload.CoherenceSet()),
		NonCoherent: names(workload.NonCoherenceSet()),
		Joules:      map[string]map[string]float64{},
	}
	var gtscSum, tcSum float64
	for _, wl := range workload.All() {
		row := map[string]float64{}
		for _, b := range fig13Bars {
			if r := g.run(wl, b.v); r != nil {
				row[b.label] = r.EnergyJ.L1
			}
		}
		out.Joules[wl.Name] = row
		gtscSum += row["G-TSC-RC"]
		tcSum += row["TC-RC"]
	}
	out.TCUnderGTSC = tcSum < gtscSum
	return out, nil
}

// Print renders the figure.
func (r *Fig17) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 17: L1 cache energy (joules)")
	printBars(w, r.Coherent, r.NonCoherent, Fig13Series, r.Joules, "%.3g")
	fmt.Fprintf(w, "TC L1 energy slightly below G-TSC (paper's observation): %v\n", r.TCUnderGTSC)
}

// ExpiryMiss reproduces the §VI-E characterization: misses caused by
// lease expiration drop under G-TSC because logical time rolls slower
// than physical time (paper: ~48% fewer). An expired G-TSC access
// whose data is still current is answered by a dataless renewal and
// the block stays live in the L1 — only expirations forcing a data
// refetch are coherence misses in the sense TC suffers them (TC
// self-invalidates the whole block either way and always refetches).
type ExpiryMiss struct {
	Workloads []string
	// GTSCExpired counts all lease-expired accesses; GTSCRefetch the
	// subset needing data; TC's self-invalidations all need data.
	GTSCExpired map[string]uint64
	GTSCRefetch map[string]uint64
	TC          map[string]uint64
	// Reduction is the geomean cut in data-refetching expiry misses
	// vs TC.
	Reduction float64
}

// RunExpiryMiss executes the comparison over the coherence set.
func (s *Session) RunExpiryMiss() (*ExpiryMiss, error) {
	g, err := s.grid(cells(workload.CoherenceSet(), vGTSCRC, vTCRC))
	if err != nil {
		return nil, err
	}
	out := &ExpiryMiss{
		GTSCExpired: map[string]uint64{},
		GTSCRefetch: map[string]uint64{},
		TC:          map[string]uint64{},
	}
	var ratios []float64
	g.pairs(point{}, workload.CoherenceSet(), vGTSCRC, vTCRC, func(wl *workload.Workload, gr, tc *stats.Run) {
		n := wl.Name
		out.Workloads = append(out.Workloads, n)
		out.GTSCExpired[n] = gr.L1.MissExpired
		refetch := uint64(0)
		if gr.L1.MissExpired > gr.L1.RenewalHits {
			refetch = gr.L1.MissExpired - gr.L1.RenewalHits
		}
		out.GTSCRefetch[n] = refetch
		out.TC[n] = tc.L1.MissExpired
		ratios = append(ratios, float64(refetch+1)/float64(tc.L1.MissExpired+1))
	})
	out.Reduction = 1 - geomean(ratios)
	return out, nil
}

// Print renders the comparison.
func (r *ExpiryMiss) Print(w io.Writer) {
	fmt.Fprintln(w, "SecVI-E: L1 misses due to lease expiration (RC)")
	t := newTable(w)
	t.row("Benchmark", "G-TSC expired", "G-TSC refetched", "TC self-invalidated")
	for _, n := range r.Workloads {
		t.row(n, fmt.Sprintf("%d", r.GTSCExpired[n]),
			fmt.Sprintf("%d", r.GTSCRefetch[n]), fmt.Sprintf("%d", r.TC[n]))
	}
	t.flush()
	fmt.Fprintf(w, "expiry-miss (data refetch) reduction vs TC: %.0f%% (paper ~48%%)\n", 100*r.Reduction)
}
