package experiments

import (
	"fmt"
	"io"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// AblationVisibility evaluates the two update-visibility designs of
// §V-A: option 1 (delay readers of a locked line until the store
// acknowledges — the paper's choice) against option 2 (keep the old
// copy readable during the store). The paper found option 1's overhead
// negligible, avoiding option 2's extra storage.
type AblationVisibility struct {
	Workloads []string
	Option1   map[string]uint64 // cycles, delay-readers (default)
	Option2   map[string]uint64 // cycles, keep-old-copy
	// Option2Speedup is the geomean cycles(opt1)/cycles(opt2)
	// (paper: ~1.0 — negligible difference).
	Option2Speedup float64
}

// RunAblationVisibility executes the comparison over the coherence set
// under G-TSC-RC.
func (s *Session) RunAblationVisibility() (*AblationVisibility, error) {
	vOldCopy := variant{proto: memsys.GTSC, cons: gpu.RC, oldCopy: true}
	g, err := s.grid(cells(workload.CoherenceSet(), vGTSCRC, vOldCopy))
	if err != nil {
		return nil, err
	}
	out := &AblationVisibility{Option1: map[string]uint64{}, Option2: map[string]uint64{}}
	var ratios []float64
	g.pairs(point{}, workload.CoherenceSet(), vGTSCRC, vOldCopy, func(wl *workload.Workload, o1, o2 *stats.Run) {
		out.Workloads = append(out.Workloads, wl.Name)
		out.Option1[wl.Name] = o1.Cycles
		out.Option2[wl.Name] = o2.Cycles
		ratios = append(ratios, cycleRatio(o1, o2))
	})
	out.Option2Speedup = geomean(ratios)
	return out, nil
}

// Print renders the ablation.
func (r *AblationVisibility) Print(w io.Writer) {
	fmt.Fprintln(w, "SecV-A ablation: update visibility — option 1 (delay readers) vs option 2 (old copy)")
	t := newTable(w)
	t.row("Benchmark", "opt1 cycles", "opt2 cycles", "opt1/opt2")
	for _, n := range r.Workloads {
		t.row(n,
			fmt.Sprintf("%d", r.Option1[n]),
			fmt.Sprintf("%d", r.Option2[n]),
			fmt.Sprintf("%.3f", float64(r.Option1[n])/float64(r.Option2[n])))
	}
	t.flush()
	fmt.Fprintf(w, "geomean opt1/opt2 = %.3f (paper: negligible difference; option 1 avoids the extra storage)\n",
		r.Option2Speedup)
}

// AblationCombining evaluates §V-B: merging same-block reads in the
// MSHR (the paper's choice) against forwarding every request to L2.
// The paper reports forwarding increases memory requests by 12–35%.
type AblationCombining struct {
	Workloads []string
	// Requests/flits with combining (default) and with forward-all.
	CombineMsgs  map[string]uint64
	ForwardMsgs  map[string]uint64
	CombineFlits map[string]uint64
	ForwardFlits map[string]uint64
	// MsgIncrease is the geomean relative increase in L1->L2 requests
	// from forwarding (paper: 12-35%).
	MsgIncrease float64
}

// RunAblationCombining executes the comparison over the coherence set
// under G-TSC-RC.
func (s *Session) RunAblationCombining() (*AblationCombining, error) {
	vForward := variant{proto: memsys.GTSC, cons: gpu.RC, forwardAll: true}
	g, err := s.grid(cells(workload.CoherenceSet(), vGTSCRC, vForward))
	if err != nil {
		return nil, err
	}
	out := &AblationCombining{
		CombineMsgs:  map[string]uint64{},
		ForwardMsgs:  map[string]uint64{},
		CombineFlits: map[string]uint64{},
		ForwardFlits: map[string]uint64{},
	}
	var ratios []float64
	g.pairs(point{}, workload.CoherenceSet(), vGTSCRC, vForward, func(wl *workload.Workload, c, f *stats.Run) {
		out.Workloads = append(out.Workloads, wl.Name)
		out.CombineMsgs[wl.Name] = c.NoC.MsgsToL2
		out.ForwardMsgs[wl.Name] = f.NoC.MsgsToL2
		out.CombineFlits[wl.Name] = c.NoC.TotalFlits()
		out.ForwardFlits[wl.Name] = f.NoC.TotalFlits()
		ratios = append(ratios, float64(f.NoC.MsgsToL2)/float64(c.NoC.MsgsToL2))
	})
	out.MsgIncrease = geomean(ratios) - 1
	return out, nil
}

// Print renders the ablation.
func (r *AblationCombining) Print(w io.Writer) {
	fmt.Fprintln(w, "SecV-B ablation: MSHR request combining vs forwarding all reads to L2")
	t := newTable(w)
	t.row("Benchmark", "combine msgs", "forward msgs", "increase", "combine flits", "forward flits")
	for _, n := range r.Workloads {
		inc := float64(r.ForwardMsgs[n])/float64(r.CombineMsgs[n]) - 1
		t.row(n,
			fmt.Sprintf("%d", r.CombineMsgs[n]),
			fmt.Sprintf("%d", r.ForwardMsgs[n]),
			fmt.Sprintf("%+.0f%%", 100*inc),
			fmt.Sprintf("%d", r.CombineFlits[n]),
			fmt.Sprintf("%d", r.ForwardFlits[n]))
	}
	t.flush()
	fmt.Fprintf(w, "geomean request increase from forward-all: %.0f%% (paper: 12-35%%)\n", 100*r.MsgIncrease)
}
