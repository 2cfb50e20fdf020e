package workload

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
)

// testConfig builds a reduced machine (4 SMs) so the full suite runs
// quickly under `go test`.
func testConfig(p memsys.Protocol, c gpu.Consistency) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = p
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	cfg.SM.Consistency = c
	cfg.MaxCycles = 20_000_000
	return cfg
}

func coherentConfigs() map[string]sim.Config {
	return map[string]sim.Config{
		"gtsc-rc": testConfig(memsys.GTSC, gpu.RC),
		"gtsc-sc": testConfig(memsys.GTSC, gpu.SC),
		"tc-rc":   testConfig(memsys.TC, gpu.RC),
		"tc-sc":   testConfig(memsys.TC, gpu.SC),
		"bl-rc":   testConfig(memsys.BL, gpu.RC),
	}
}

// TestCoherenceSetConverges verifies all six coherence-requiring
// workloads reach the exact sequential fixpoint under every coherent
// configuration.
func TestCoherenceSetConverges(t *testing.T) {
	for _, w := range CoherenceSet() {
		for name, cfg := range coherentConfigs() {
			w, cfg := w, cfg
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				inst := w.Build(1)
				run, err := inst.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if run.Cycles == 0 || run.L1.Loads == 0 && cfg.Mem.Protocol != memsys.BL {
					t.Fatalf("suspicious stats: %v", run)
				}
			})
		}
	}
}

// TestNonCoherenceSet verifies the six coherence-free workloads under
// every configuration including the non-coherent L1.
func TestNonCoherenceSet(t *testing.T) {
	cfgs := coherentConfigs()
	cfgs["l1nc-rc"] = testConfig(memsys.L1NC, gpu.RC)
	cfgs["l1nc-sc"] = testConfig(memsys.L1NC, gpu.SC)
	for _, w := range NonCoherenceSet() {
		for name, cfg := range cfgs {
			w, cfg := w, cfg
			t.Run(w.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				if _, err := w.Build(1).Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCoherenceSetNeedsCoherence demonstrates the paper's premise: a
// non-coherent L1 produces wrong results on the first benchmark set
// (stale labels never propagate between SMs).
func TestCoherenceSetNeedsCoherence(t *testing.T) {
	cfg := testConfig(memsys.L1NC, gpu.RC)
	inst := CC().Build(1)
	if _, err := inst.Run(cfg); err == nil {
		t.Fatal("CC verified successfully under a non-coherent L1; it must not")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("expected 12 workloads, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Fatalf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.Description == "" {
			t.Fatalf("%s: empty description", w.Name)
		}
		if _, ok := ByName(w.Name); !ok {
			t.Fatalf("%s not found by name", w.Name)
		}
	}
	if len(CoherenceSet()) != 6 || len(NonCoherenceSet()) != 6 {
		t.Fatal("sets must be 6+6")
	}
	for _, w := range CoherenceSet() {
		if !w.NeedsCoherence {
			t.Fatalf("%s should need coherence", w.Name)
		}
	}
	for _, w := range NonCoherenceSet() {
		if w.NeedsCoherence {
			t.Fatalf("%s should not need coherence", w.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) should fail")
	}
}

// testWarp returns warp inCTA of CTA cta with its thread contexts, as
// the dispatcher lays them out, for fetching a kernel's instructions
// without a simulator.
func testWarp(k *gpu.Kernel, cta, inCTA int) *gpu.Warp {
	w := &gpu.Warp{CTA: &gpu.CTA{ID: cta}, InCTA: inCTA}
	for lane := range w.Threads {
		tid := inCTA*gpu.WarpWidth + lane
		w.Threads[lane] = &gpu.Thread{
			CTA: cta, Warp: inCTA, Lane: lane, TIDInCTA: tid,
			GTID: cta*k.WarpsPerCTA*gpu.WarpWidth + tid, Regs: make([]uint32, k.Regs),
		}
	}
	return w
}

// TestInstructionsBuiltOncePerKernel: a kernel's instructions are
// warp-invariant, so every kernel of the suite and the microbenchmarks
// builds them once and its warps share them. Warps of different CTAs
// fetch pointer-identical instructions, and a warmed program's Next
// allocates nothing over the whole stream. Streams are cut at fetches
// instructions: alone, warp 0 of a relaxation kernel spins at the
// first global barrier for ever.
func TestInstructionsBuiltOncePerKernel(t *testing.T) {
	const fetches = 256
	for _, wl := range append(All(), Micro()...) {
		for _, k := range wl.Build(1).Kernels {
			length := 0
			for _, inCTA := range []int{k.WarpsPerCTA - 1, 0} {
				wa, wb := testWarp(k, 0, inCTA), testWarp(k, k.CTAs-1, inCTA)
				a, b := k.ProgramFor(wa), k.ProgramFor(wb)
				for length = 0; length < fetches; length++ {
					ia, _ := a.Next(wa)
					ib, _ := b.Next(wb)
					if ia != ib {
						t.Fatalf("%s warp %d: instruction %d of CTA 0 (%p) and CTA %d (%p) differ",
							k.Name, inCTA, length, ia, k.CTAs-1, ib)
					}
					if ia == nil {
						break
					}
				}
			}

			// One fetch here and AllocsPerRun's own first call warm the
			// program; the measured calls take the rest of warp 0's
			// stream.
			w := testWarp(k, 0, 0)
			p := k.ProgramFor(w)
			p.Next(w)
			if allocs := testing.AllocsPerRun(max(length-2, 1), func() { p.Next(w) }); allocs != 0 {
				t.Errorf("%s: Program.Next allocates %.0f objects per call", k.Name, allocs)
			}
		}
	}
}
