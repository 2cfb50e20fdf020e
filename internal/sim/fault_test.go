package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/noc"
)

// faultSeeds are the fixed seeds the smoke suite replays. A failure
// reports the full plan; rerunning the test (or `gtscsim -faultseed
// <seed>`) reproduces the exact perturbation schedule.
var faultSeeds = []int64{1, 2, 3}

// faultProtocols lists every coherent protocol; the litmus assertions
// below run them under SC, where each one's forbidden outcomes are
// architecturally forbidden.
var faultProtocols = []struct {
	name string
	p    memsys.Protocol
}{
	{"gtsc", memsys.GTSC},
	{"tc", memsys.TC},
	{"bl", memsys.BL},
	{"dir", memsys.DIR},
}

// checkOrdering applies the ordering invariant of the run's
// configuration (Config.Ordering) to its operation log.
func checkOrdering(t *testing.T, cfg Config, ops []check.Record) {
	t.Helper()
	if order := cfg.Ordering(); order != nil {
		if vio := order(ops, 3); len(vio) > 0 {
			t.Fatalf("ordering invariant violated: %v", vio[0].Error())
		}
	}
}

// TestLitmusUnderFaults runs the MP and SB litmus tests on every
// protocol under seeded chaos plans (delivery jitter, cross-pair
// reordering, injection rejects, DRAM spikes, timestamp stress). The
// forbidden outcomes must stay forbidden no matter how the fault
// schedule perturbs timing, and the recorded operation log must still
// satisfy the protocol's ordering invariant.
func TestLitmusUnderFaults(t *testing.T) {
	mp := litmusKernel("mp-faults",
		[]*gpu.Instr{
			gpu.Store(lane0(litX), func(*gpu.Thread) uint32 { return 1 }), // data
			gpu.Store(lane0(litY), func(*gpu.Thread) uint32 { return 1 }), // flag
		},
		[]*gpu.Instr{
			gpu.Load(0, lane0(litY)), // flag
			gpu.Load(1, lane0(litX)), // data
		})
	sb := litmusKernel("sb-faults",
		[]*gpu.Instr{
			gpu.Store(lane0(litX), func(*gpu.Thread) uint32 { return 1 }),
			gpu.Load(0, lane0(litY)),
		},
		[]*gpu.Instr{
			gpu.Store(lane0(litY), func(*gpu.Thread) uint32 { return 1 }),
			gpu.Load(0, lane0(litX)),
		})

	plans := []struct {
		name string
		mk   func(int64) fault.Config
	}{
		{"chaos", fault.Chaos},
		// Chaos plus forced mid-run §V-D rollovers: epochs churn on the
		// fault plan's schedule, not only at natural counter overflow.
		{"rollover", fault.ChaosRollover},
	}
	for _, pc := range faultProtocols {
		for _, plan := range plans {
			for _, seed := range faultSeeds {
				pc, plan, seed := pc, plan, seed
				t.Run(fmt.Sprintf("%s/%s/seed%d", pc.name, plan.name, seed), func(t *testing.T) {
					t.Parallel()
					newCfg := func() (Config, *check.Recorder) {
						cfg := smallConfig(pc.p, gpu.SC)
						cfg.Mem.NumSMs = 2
						cfg.Mem.NoC = noc.Config{Latency: 4, InjectQueue: 8}
						cfg.Mem.Fault = plan.mk(seed)
						rec := check.NewRecorder()
						cfg.Observer = rec
						return cfg, rec
					}

					cfg, rec := newCfg()
					r := runLitmus(t, cfg, mp)
					if flag, data := r[1][0], r[1][1]; flag == 1 && data == 0 {
						t.Fatalf("forbidden MP outcome flag=1,data=0 under [%s]", cfg.Mem.Fault)
					}
					checkOrdering(t, cfg, rec.Ops())

					cfg, rec = newCfg()
					r = runLitmus(t, cfg, sb)
					if r[0][0] == 0 && r[1][0] == 0 {
						t.Fatalf("forbidden SB outcome 0/0 under [%s]", cfg.Mem.Fault)
					}
					checkOrdering(t, cfg, rec.Ops())
				})
			}
		}
	}
}

// TestForcedRolloverFires pins the rollover plan's mechanism in
// isolation: a plan with ONLY RolloverEvery set (full-width counters,
// so no natural overflow is possible) must still drive §V-D resets on
// its schedule, the run must verify, and the schedule must replay
// exactly from its seed.
func TestForcedRolloverFires(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := smallConfig(memsys.GTSC, gpu.SC)
		cfg.Mem.Fault = fault.Config{Seed: 11, RolloverEvery: 600, RolloverJitter: 200}
		rec := check.NewRecorder()
		cfg.Observer = rec
		s := New(cfg)
		r, err := s.Run(conflictKernel(0x80000, 64, 16))
		if err != nil {
			t.Fatal(err)
		}
		if vio := check.CheckTimestampOrder(rec.Ops(), 3); len(vio) > 0 {
			t.Fatalf("ordering invariant violated under forced rollover: %v", vio[0].Error())
		}
		return s.Sys.Resets.Resets(), r.Cycles
	}
	resets, cycles := run()
	if resets == 0 {
		t.Fatalf("no §V-D reset fired in %d cycles despite RolloverEvery=600", cycles)
	}
	resets2, cycles2 := run()
	if resets != resets2 || cycles != cycles2 {
		t.Fatalf("same rollover seed diverged: resets %d/%d cycles %d/%d",
			resets, resets2, cycles, cycles2)
	}
}

// TestInjectQueueOne pins the NoC injection queue to a single entry —
// maximal backpressure on every controller's retry path — and runs the
// shared-region stress kernel on all four protocols. The run must
// complete and the ordering invariants must hold.
func TestInjectQueueOne(t *testing.T) {
	const base = mem.Addr(0x40000)
	for _, pc := range faultProtocols {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(pc.p, gpu.SC)
			cfg.Mem.NoC = noc.Config{Latency: 4, InjectQueue: 1}
			rec := check.NewRecorder()
			cfg.Observer = rec
			s := New(cfg)
			if _, err := s.Run(conflictKernel(base, 4, 8)); err != nil {
				t.Fatal(err)
			}
			if rec.Len() == 0 {
				t.Fatal("no operations observed")
			}
			checkOrdering(t, cfg, rec.Ops())
		})
	}
}

// TestWedgedRunProducesDeadlock wedges the machine outright — every
// NoC injection attempt is rejected, so no memory request ever leaves
// an L1 — and asserts the forward-progress watchdog converts the hang
// into a structured DeadlockError with a populated machine-state dump,
// long before the MaxCycles budget would expire.
func TestWedgedRunProducesDeadlock(t *testing.T) {
	cfg := smallConfig(memsys.GTSC, gpu.RC)
	cfg.Mem.Fault = fault.Config{Seed: 7, RejectProb: 1.0}
	cfg.WatchdogWindow = 2_000
	_, err := New(cfg).Run(writeReadKernel(0x50000))
	if err == nil {
		t.Fatal("wedged run completed")
	}
	var de *diag.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want DeadlockError, got %T: %v", err, err)
	}
	if de.Reason != "no-forward-progress" {
		t.Fatalf("reason = %q, want no-forward-progress", de.Reason)
	}
	if de.StalledFor < cfg.WatchdogWindow {
		t.Fatalf("stalled %d cycles, want >= %d", de.StalledFor, cfg.WatchdogWindow)
	}
	if de.Cycle > 200_000 {
		t.Fatalf("watchdog fired at cycle %d; should trip shortly after the %d-cycle window",
			de.Cycle, cfg.WatchdogWindow)
	}
	if de.Dump == nil {
		t.Fatal("no machine-state dump attached")
	}
	text := de.Dump.String()
	if !strings.Contains(text, "machine state") || !strings.Contains(text, "end state") {
		t.Fatalf("dump not rendered:\n%s", text)
	}
	if len(de.Dump.SMs) == 0 {
		t.Fatal("dump has no SM states")
	}
	if de.Dump.Faults == "" {
		t.Fatal("dump does not record the active fault plan")
	}
}

// TestProtocolErrorCarriesDump poisons each kind of first-failure latch
// mid-run — an L2 bank fed a message outside its state machine (a
// directory-only invalidation), an L1 handed an ack no access awaits,
// a DRAM partition handed a non-DRAM request — and asserts the run
// fails with a typed ProtocolError naming the component and event and
// carrying the machine-state dump, instead of panicking. The component,
// event and dump cycle are pinned, so a failure check that runs late
// fails; the last case latches all three before the same check, so one
// that scans the controllers in another order fails too.
func TestProtocolErrorCarriesDump(t *testing.T) {
	const pauseAt = 100
	block := mem.Addr(0x70000).Block()
	viaNoCToL2 := func(s *Simulator) {
		s.Sys.Net.SendToL2(&mem.Msg{Type: mem.BusInv, Block: block, Src: 1, Dst: 0})
	}
	viaNoCToL1 := func(s *Simulator) {
		s.Sys.Net.SendToL1(&mem.Msg{Type: mem.BusAtomAck, Block: block, Src: 0, Dst: 1, ReqID: 1 << 40})
	}
	toPartition := func(s *Simulator) {
		s.Sys.Parts[2].Enqueue(&mem.Msg{Type: mem.BusRd, Block: block, Src: 2})
	}
	allAtOnce := func(s *Simulator) {
		s.Sys.L2s[0].Deliver(&mem.Msg{Type: mem.BusInv, Block: block, Src: 1})
		s.Sys.L1s[1].Deliver(&mem.Msg{Type: mem.BusAtomAck, Block: block, Src: 0, Dst: 1, ReqID: 1 << 40})
		toPartition(s)
	}
	cases := []struct {
		name             string
		poison           func(*Simulator)
		component, event string
		cycle            uint64
	}{
		{"l2", viaNoCToL2, "gtsc-l2[0]", "unexpected-message", 118},
		{"l1-ack", viaNoCToL1, "gtsc-l1[1]", "unknown-atomic-ack", 118},
		{"dram", toPartition, "dram[2]", "unexpected-message", 101},
		{"all-three", allAtOnce, "gtsc-l1[1]", "unknown-atomic-ack", 101},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(smallConfig(memsys.GTSC, gpu.RC))
			_, paused, err := s.RunUntil(context.Background(), writeReadKernel(0x70000), pauseAt)
			if err != nil || !paused {
				t.Fatalf("pause at %d: paused=%v err=%v", pauseAt, paused, err)
			}
			tc.poison(s)
			_, _, err = s.Resume(context.Background(), 0)
			if err == nil {
				t.Fatal("poisoned run succeeded")
			}
			var pe *diag.ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("want ProtocolError, got %T: %v", err, err)
			}
			if pe.Dump == nil {
				t.Fatal("no machine-state dump attached")
			}
			if pe.Component != tc.component || pe.Event != tc.event || pe.Dump.Cycle != tc.cycle {
				t.Errorf("failure %s/%s at cycle %d, want %s/%s at cycle %d",
					pe.Component, pe.Event, pe.Dump.Cycle, tc.component, tc.event, tc.cycle)
			}
			if !strings.Contains(err.Error(), "protocol error") {
				t.Fatalf("error summary %q", err.Error())
			}
		})
	}
}

// TestFaultScheduleReproducible runs the same kernel under the same
// chaos seed twice and asserts cycle-exact equality — the property that
// makes every harness failure replayable from its seed alone.
func TestFaultScheduleReproducible(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		cfg := smallConfig(memsys.GTSC, gpu.RC)
		cfg.Mem.Fault = fault.Chaos(42)
		r, err := New(cfg).Run(conflictKernel(0x60000, 4, 8))
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles, r.SM.InstrIssued, r.NoC.MsgsToL2
	}
	c1, i1, m1 := run()
	c2, i2, m2 := run()
	if c1 != c2 || i1 != i2 || m1 != m2 {
		t.Fatalf("same seed diverged: cycles %d/%d instrs %d/%d msgs %d/%d",
			c1, c2, i1, i2, m1, m2)
	}
}
