package sim_test

import (
	"context"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestCoherenceWorkloadsAtTSBits8 runs the six coherence benchmarks
// (the paper's Table II set) with 8-bit G-TSC timestamp counters —
// narrow enough that the §V-D overflow reset fires mid-kernel — under
// an attached verifier. The recorded log's unrolled timestamps must
// stay coherent across every epoch crossing, and the set as a whole
// must actually cross epochs (a run that never overflowed would prove
// nothing about the reset paths).
func TestCoherenceWorkloadsAtTSBits8(t *testing.T) {
	var totalResets uint64
	for _, wl := range workload.CoherenceSet() {
		rec := check.NewRecorder()
		cfg := sim.DefaultConfig()
		cfg.Mem.Protocol = memsys.GTSC
		cfg.Mem.NumSMs = 4
		cfg.Mem.NumBanks = 4
		cfg.Mem.GTSC.TSBits = 8
		cfg.SM.Consistency = gpu.RC
		cfg.Observer = rec
		s := sim.New(cfg)
		if _, err := wl.Build(1).Start(s).Run(context.Background()); err != nil {
			t.Fatalf("%s at TSBits=8: %v", wl.Name, err)
		}
		if vio := check.CheckTimestampOrder(rec.Ops(), 3); len(vio) > 0 {
			t.Fatalf("%s at TSBits=8: ordering violated across overflow reset: %v",
				wl.Name, vio[0].Error())
		}
		r := s.Sys.Resets.Resets()
		t.Logf("%s: %d ops verified, %d §V-D reset(s)", wl.Name, rec.Len(), r)
		totalResets += r
	}
	if totalResets == 0 {
		t.Fatal("no workload triggered a §V-D overflow reset; TSBits=8 should make them routine")
	}
}
