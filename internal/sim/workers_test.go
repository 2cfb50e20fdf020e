package sim

import (
	"runtime"
	"testing"
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
