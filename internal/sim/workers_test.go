package sim

import (
	"runtime"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
)

// TestEffectiveWorkersClamp pins the resolution chain of
// Config.SimWorkers: floor 1, clamped to GOMAXPROCS (oversubscribing a
// small host makes the relaxed domain pool SLOWER than inline — the
// clamp turns a pessimization into a no-op), then to the SM count
// (idle workers can never have work).
func TestEffectiveWorkersClamp(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cfg := DefaultConfig()
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 2

	cases := []struct {
		simWorkers int
		want       int
	}{
		{0, 1},  // unset: serial
		{-3, 1}, // nonsense: serial
		{1, 1},
		{2, min(2, maxprocs)},
		{64, min(min(64, maxprocs), 4)}, // GOMAXPROCS clamp, then SM-count clamp
	}
	for _, tc := range cases {
		cfg.SimWorkers = tc.simWorkers
		s := New(cfg)
		if got := s.effectiveWorkers(); got != tc.want {
			t.Errorf("SimWorkers=%d at GOMAXPROCS=%d: effectiveWorkers=%d, want %d",
				tc.simWorkers, maxprocs, got, tc.want)
		}
	}
}

// TestEngineReportsEffectiveWorkers: the engine: line the CLIs print
// reads EngineStats.Workers after a run, which must be the EFFECTIVE
// value, not the requested one — a 1-CPU host asking for -simworkers
// 64 must see simworkers=1 reported, and no host may report more than
// GOMAXPROCS. The exact engine ticks serially and reports 1.
func TestEngineReportsEffectiveWorkers(t *testing.T) {
	cfg := smallConfig(memsys.GTSC, gpu.RC)
	cfg.SimWorkers = 64 // far beyond any host
	cfg.SlackCycles = 8
	s := New(cfg)
	want := s.effectiveWorkers()
	if want > runtime.GOMAXPROCS(0) {
		t.Fatalf("effectiveWorkers=%d exceeds GOMAXPROCS=%d", want, runtime.GOMAXPROCS(0))
	}
	if _, err := s.Run(writeReadKernel(0)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := s.Engine().Workers; got != want {
		t.Errorf("relaxed EngineStats.Workers = %d, want effective %d", got, want)
	}

	cfg.SlackCycles = 0
	s = New(cfg)
	if _, err := s.Run(writeReadKernel(0)); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := s.Engine().Workers; got != 1 {
		t.Errorf("exact-engine EngineStats.Workers = %d, want 1", got)
	}
}
