package sim_test

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/workload"
)

// BenchmarkDrainPhase pins the satellite fix for the drain loop: the
// loop condition used to re-derive s.Sys.Pending() — a full scan over
// every MSHR, queue and directory entry in the machine — every single
// drain cycle, which dominated short kernels. It now asks the O(1)
// Drained query. CCP is the shortest golden kernel (~780 cycles), so
// the drain tail is the largest fraction of its wall time; this
// benchmark is the canary that the scan never creeps back.
func BenchmarkDrainPhase(b *testing.B) {
	wl, ok := workload.ByName("CCP")
	if !ok {
		b.Fatal("workload CCP missing")
	}
	cfg, ok := goldenConfig("gtsc-rc")
	if !ok {
		b.Fatal("unknown config label")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wl.Build(1).Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
