package sim_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sched"
	"github.com/gtsc-sim/gtsc/internal/sim"
)

// TestComponentDispatchAccounting pins the engine's bookkeeping on
// every golden and chaos row. Every run, fault-injected or not, is an
// event-engine run that skips provably quiet cycles, with executed +
// skipped run cycles equal to the simulated kernel cycles. Every
// executed event cycle makes exactly one tick-or-sleep decision per
// component, so per class ticks + sleeps = EventCycles * class size,
// and some component must actually sleep, or the dispatcher is dead
// weight. The fault shims and the rollover schedule sit on the same
// agenda, so the chaos table's correctness proof is not bought by
// quietly ticking everything.
func TestComponentDispatchAccounting(t *testing.T) {
	for _, row := range tableRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			s := sim.New(row.cfg)
			run, err := row.wl.Build(1).Start(s).Run(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			eng := s.Engine()
			if mode := eng.Mode(); mode != "event" {
				t.Errorf("engine mode %q, want event", mode)
			}
			if eng.RunCycles+eng.RunSkipped != run.Cycles {
				t.Errorf("run cycles executed+skipped = %d+%d, want %d", eng.RunCycles, eng.RunSkipped, run.Cycles)
			}
			if eng.SkippedCycles() == 0 {
				t.Error("no cycle was skipped")
			}
			c := eng.Comp
			checks := []struct {
				class         string
				ticks, sleeps uint64
				size          int
			}{
				{"noc", c.NoCTicks, c.NoCSleeps, 1},
				{"dram", c.DRAMTicks, c.DRAMSleeps, len(s.Sys.Parts)},
				{"l2", c.L2Ticks, c.L2Sleeps, len(s.Sys.L2s)},
				{"l1", c.L1Ticks, c.L1Sleeps, len(s.Sys.L1s)},
			}
			for _, ch := range checks {
				want := eng.EventCycles * uint64(ch.size)
				if got := ch.ticks + ch.sleeps; got != want {
					t.Errorf("%s: ticks %d + sleeps %d = %d, want EventCycles(%d) * %d = %d",
						ch.class, ch.ticks, ch.sleeps, got, eng.EventCycles, ch.size, want)
				}
			}
			if c.HierarchySleeps() == 0 {
				t.Error("no hierarchy component ever slept; per-component dispatch bought nothing on a real workload")
			}
		})
	}
}

// ctrlCalls counts the calls one controller class receives, and for
// the banks the ticks that came before the wake the bank named at its
// last tick with no delivery or DRAM fill in between (early) and those
// that came exactly on a timed wake (timed). For the L1s it counts the
// rejected accesses, and among them the re-rejects: a request rejected
// again with no delivery into its L1 since its last rejection.
type ctrlCalls struct {
	ticks, syncs, delivers, fills, errs uint64
	early, timed                        uint64
	rejects, rerejects                  uint64
}

// countingL1 and countingL2 count the calls the engine, the transports
// and the SMs make into a controller, forwarding every call unchanged.
type countingL1 struct {
	coherence.L1
	c        *ctrlCalls
	rejected *coherence.Request // the last request rejected, until one is accepted
	fed      bool               // a delivery reached the L1 since that rejection
}

func (w *countingL1) Access(req *coherence.Request) coherence.AccessResult {
	r := w.L1.Access(req)
	if r != coherence.Reject {
		w.rejected = nil
		return r
	}
	w.c.rejects++
	if req == w.rejected && !w.fed {
		w.c.rerejects++
	}
	w.rejected, w.fed = req, false
	return r
}
func (w *countingL1) Tick(now uint64)      { w.c.ticks++; w.L1.Tick(now) }
func (w *countingL1) SyncClock(now uint64) { w.c.syncs++; w.L1.SyncClock(now) }
func (w *countingL1) Deliver(m *mem.Msg)   { w.c.delivers++; w.fed = true; w.L1.Deliver(m) }
func (w *countingL1) Err() error           { w.c.errs++; return w.L1.Err() }

type countingL2 struct {
	coherence.L2
	c    *ctrlCalls
	wake uint64 // the bank's Wake after its last tick
	fed  bool   // a delivery or DRAM fill reached it since
}

func (w *countingL2) Tick(now uint64) {
	w.c.ticks++
	if !w.fed && w.wake != sched.Hot {
		if now < w.wake {
			w.c.early++
		} else if now == w.wake {
			w.c.timed++
		}
	}
	w.L2.Tick(now)
	w.wake, w.fed = w.L2.Wake(now), false
}
func (w *countingL2) SyncClock(now uint64) { w.c.syncs++; w.L2.SyncClock(now) }
func (w *countingL2) Deliver(m *mem.Msg)   { w.c.delivers++; w.fed = true; w.L2.Deliver(m) }
func (w *countingL2) DRAMFill(m *mem.Msg)  { w.c.fills++; w.fed = true; w.L2.DRAMFill(m) }
func (w *countingL2) Err() error           { w.c.errs++; return w.L2.Err() }

// TestEngineCallsOnlyActingControllers pins the cost model of an
// executed cycle: the engine ticks exactly the controllers its
// dispatch counts say it ticks, polls no controller's Err while nothing
// failed, and brings a sleeping controller's clock current only when
// something reads it — a delivery or DRAM fill, its SM's tick, or a
// phase exit — instead of on every executed cycle. No bank ticks
// before the wake it named at its last tick unless a delivery or DRAM
// fill reached it: a TC-Strong bank waiting out leases sleeps until the
// earliest expiry. No L1 sees a request rejected twice without a
// delivery into it in between: the LDST unit parks a rejected head
// until its L1 takes a delivery, and on the -mshr2 rows, whose L1s
// reject, the parked heads are what the run exercises. Wrapping every
// controller must not change the simulated run.
func TestEngineCallsOnlyActingControllers(t *testing.T) {
	want := map[string]bool{}
	for _, wl := range []string{"CC", "BH"} {
		for _, c := range []string{"gtsc-rc", "tc-rc", "tc-sc", "bl-rc", "gtsc-rc-mesh-banked",
			"gtsc-rc-mshr2", "tc-sc-mshr2", "dir-rc-mshr2"} {
			want[wl+"/"+c] = true
		}
	}
	want["CC/tc-rc/chaos1"] = true
	var rows []tableRow
	for _, row := range tableRows(t) {
		if want[row.name] {
			rows = append(rows, row)
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("found %d of the %d rows", len(rows), len(want))
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			ref, err := row.wl.Build(1).Run(row.cfg)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}

			s := sim.New(row.cfg)
			var l1, l2 ctrlCalls
			for i, c := range s.Sys.L1s {
				s.Sys.L1s[i] = &countingL1{L1: c, c: &l1}
			}
			for i, c := range s.Sys.L2s {
				s.Sys.L2s[i] = &countingL2{L2: c, c: &l2}
			}
			// The same SM config sim.New derives, over the wrapped L1s.
			smCfg := s.Cfg.SM
			smCfg.MaxWarps = s.Cfg.Mem.MaxWarps
			for i := range s.SMs {
				s.SMs[i] = gpu.NewSM(i, smCfg, s.Sys.L1s[i])
			}
			inst := row.wl.Build(1)
			run, err := inst.Start(s).Run(context.Background())
			if err != nil {
				t.Fatalf("wrapped run: %v", err)
			}
			if !reflect.DeepEqual(run, ref) {
				t.Fatalf("wrapping the controllers changed the run:\n got %+v\nwant %+v", *run, *ref)
			}

			eng := s.Engine()
			if l1.errs+l2.errs != 0 {
				t.Errorf("Err polled %d times on L1s and %d on L2s; no controller failed", l1.errs, l2.errs)
			}
			if l1.ticks != eng.Comp.L1Ticks || l2.ticks != eng.Comp.L2Ticks {
				t.Errorf("Tick calls L1 %d, L2 %d; dispatch counted L1 %d, L2 %d",
					l1.ticks, l2.ticks, eng.Comp.L1Ticks, eng.Comp.L2Ticks)
			}
			if l2.early != 0 {
				t.Errorf("%d bank ticks came before the bank's wake with no input", l2.early)
			}
			if strings.HasSuffix(row.name, "/tc-sc") && l2.timed == 0 {
				t.Error("no TC-Strong bank ever slept until a lease expiry")
			}
			if l1.rerejects != 0 {
				t.Errorf("%d of %d rejected accesses were rejected again with no delivery into their L1 since", l1.rerejects, l1.rejects)
			}
			if strings.HasSuffix(row.name, "-mshr2") && l1.rejects == 0 {
				t.Error("no L1 rejected an access; the parked-head check is vacuous")
			}
			// Each kernel exits a run phase and a drain phase.
			exits := 2 * uint64(len(inst.Kernels))
			syncs := l1.syncs + l2.syncs
			bound := l1.delivers + l2.delivers + l2.fills + eng.SMTicks +
				exits*uint64(len(s.Sys.L1s)+len(s.Sys.L2s))
			if syncs > bound {
				t.Errorf("SyncClock calls %d (L1 %d, L2 %d) exceed deliveries %d + DRAM fills %d + SM ticks %d + %d phase exits of every controller = %d",
					syncs, l1.syncs, l2.syncs, l1.delivers+l2.delivers, l2.fills, eng.SMTicks, exits, bound)
			}
		})
	}
}
