// Benchmarks regenerating the paper's evaluation artifacts, one per
// table/figure (run with `go test -bench=. -benchmem`). Each benchmark
// executes the corresponding experiment on a reduced machine (4 SMs,
// scale 1) so the full suite completes in seconds, and reports the
// figure's headline quantity as a custom metric next to the usual
// ns/op. `cmd/gtscbench` runs the same drivers at paper scale.
package gtsc_test

import (
	"testing"

	"github.com/gtsc-sim/gtsc"
	"github.com/gtsc-sim/gtsc/internal/experiments"
)

// benchConfig is the reduced machine used by the benchmark harness.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 1
	cfg.Machine.Mem.NumSMs = 4
	cfg.Machine.Mem.NumBanks = 4
	return cfg
}

// BenchmarkTable2 regenerates Table II (absolute cycles of BL and TC).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunTableII()
		if err != nil {
			b.Fatal(err)
		}
		var bl, tc uint64
		for _, n := range r.Workloads {
			bl += r.BLCycles[n]
			tc += r.TCCycles[n]
		}
		b.ReportMetric(float64(bl), "BL-cycles")
		b.ReportMetric(float64(tc), "TC-cycles")
	}
}

// BenchmarkFig12 regenerates Fig 12 (performance of G-TSC/TC under
// RC/SC normalized to the no-L1 baseline) and reports the paper's
// headline: G-TSC-RC speedup over TC-RC on the coherence set.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunFig12()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GTSCRCoverTCRC, "GTSC-RC/TC-RC-x")
		b.ReportMetric(r.GTSCSCoverTCRC, "GTSC-SC/TC-RC-x")
		b.ReportMetric(100*r.GTSCvsL1NCOverhead, "overhead-%")
	}
}

// BenchmarkFig13 regenerates Fig 13 (memory-delay pipeline stalls).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunFig13()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TCOverGTSCSet1, "TC/GTSC-stalls-x")
	}
}

// BenchmarkFig14 regenerates Fig 14 (lease sensitivity sweep).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunFig14()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MaxSpread, "max-spread-%")
	}
}

// BenchmarkFig15 regenerates Fig 15 (NoC traffic) and reports G-TSC's
// traffic reduction vs TC.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunFig15()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.ReductionRC, "traffic-cut-RC-%")
		b.ReportMetric(100*r.ReductionSC, "traffic-cut-SC-%")
	}
}

// BenchmarkFig16 regenerates Fig 16 (total energy).
func BenchmarkFig16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunFig16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.GTSCSavingVsTC, "energy-save-vs-TC-%")
	}
}

// BenchmarkFig17 regenerates Fig 17 (L1 energy in joules).
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunFig17()
		if err != nil {
			b.Fatal(err)
		}
		var gtscJ float64
		for _, row := range r.Joules {
			gtscJ += row["G-TSC-RC"]
		}
		b.ReportMetric(gtscJ*1e6, "GTSC-L1-uJ")
	}
}

// BenchmarkExpiryMiss regenerates the §VI-E expiry-miss comparison.
func BenchmarkExpiryMiss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunExpiryMiss()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.Reduction, "expiry-refetch-cut-%")
	}
}

// BenchmarkAblationVisibility regenerates the §V-A option-1 vs
// option-2 comparison.
func BenchmarkAblationVisibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunAblationVisibility()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Option2Speedup, "opt1/opt2-x")
	}
}

// BenchmarkAblationCombining regenerates the §V-B request-combining
// vs forward-all comparison.
func BenchmarkAblationCombining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunAblationCombining()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MsgIncrease, "req-increase-%")
	}
}

// BenchmarkSimulator measures raw simulation throughput per protocol
// (simulated cycles per wall second) on the CC benchmark — the
// simulator's own performance, not the paper's.
func BenchmarkSimulator(b *testing.B) {
	for _, pc := range []struct {
		name  string
		proto gtsc.Protocol
	}{
		{"GTSC", gtsc.ProtocolGTSC},
		{"TC", gtsc.ProtocolTC},
		{"BL", gtsc.ProtocolBL},
	} {
		b.Run(pc.name, func(b *testing.B) {
			wl, _ := gtsc.WorkloadByName("CC")
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := gtsc.DefaultConfig()
				cfg.Mem.Protocol = pc.proto
				cfg.Mem.NumSMs = 4
				cfg.Mem.NumBanks = 4
				run, err := wl.Build(1).Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles += run.Cycles
			}
			b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
		})
	}
}

// BenchmarkAblationLease regenerates the adaptive-lease extension.
func BenchmarkAblationLease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunAblationLease()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.RenewalCut, "renewal-cut-%")
	}
}

// BenchmarkConsistencySpectrum regenerates the SC/TSO/RC comparison.
func BenchmarkConsistencySpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunConsistencySpectrum()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.TSOoverSC, "TSO/SC-x")
		b.ReportMetric(r.RCoverSC, "RC/SC-x")
	}
}

// BenchmarkMicroSuite regenerates the microbenchmark characterization.
func BenchmarkMicroSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunMicroTable()
		if err != nil {
			b.Fatal(err)
		}
		fs := float64(r.Cycles["FS"]["TC-RC"]) / float64(r.Cycles["FS"]["G-TSC-RC"])
		b.ReportMetric(fs, "FS-GTSC/TC-x")
	}
}

// BenchmarkPlatformSweep regenerates the substrate sweep.
func BenchmarkPlatformSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunPlatform()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Speedup["mesh+banked"], "mesh+banked-x")
	}
}

// BenchmarkDirectoryCompare regenerates the §II-C characterization
// (invalidation-based directory vs G-TSC).
func BenchmarkDirectoryCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSession(benchConfig())
		r, err := s.RunDirectoryCompare()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.GTSCSpeedup, "GTSC/dir-x")
		b.ReportMetric(float64(r.InvsAt[32]), "invs-at-32SM")
	}
}
