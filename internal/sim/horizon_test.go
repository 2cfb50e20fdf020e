package sim

import (
	"bytes"
	"hash/fnv"
	"io"
	"regexp"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sched"
)

// stepSerial executes one cycle in serial tick order (serialStep) and
// reports whether the kernel is still in flight afterwards. The wake
// property tests inspect the machine between any two cycles of it, so
// every component ticks inside every window some claim called quiet.
func stepSerial(t *testing.T, s *Simulator) bool {
	t.Helper()
	if err := s.serialStep(); err != nil {
		t.Fatalf("cycle %d: %v", s.now, err)
	}
	return s.cur.phase == phaseRun || !s.Sys.Drained()
}

// wakeCases are the workloads both wake property tests step through:
// conflict and write-read kernels on three protocols, TC-Strong (TC
// under SC) on the conflict kernel, whose stores wait at the L2 for
// leases to expire while their banks sleep until the earliest expiry,
// a G-TSC run under a chaos plan with forced rollovers, whose fault
// shims and rollover schedule are agenda components too, and a G-TSC
// run on two L1 MSHRs, whose scattered loads park the SMs' LDST heads
// (mshrs 0 keeps smallConfig's MSHRs).
var wakeCases = []struct {
	name   string
	proto  memsys.Protocol
	cons   gpu.Consistency
	kernel *gpu.Kernel
	plan   fault.Config
	mshrs  int
}{
	{"gtsc-conflict", memsys.GTSC, gpu.RC, conflictKernel(0x60000, 4, 8), fault.Config{}, 0},
	{"gtsc-writeread", memsys.GTSC, gpu.RC, writeReadKernel(0x50000), fault.Config{}, 0},
	{"dir-conflict", memsys.DIR, gpu.RC, conflictKernel(0x61000, 4, 8), fault.Config{}, 0},
	{"tc-writeread", memsys.TC, gpu.RC, writeReadKernel(0x52000), fault.Config{}, 0},
	{"tc-sc-conflict", memsys.TC, gpu.SC, conflictKernel(0x62000, 4, 8), fault.Config{}, 0},
	{"gtsc-chaos-rollover", memsys.GTSC, gpu.RC, conflictKernel(0x60000, 16, 8), fault.ChaosRollover(1), 0},
	{"gtsc-mshr2-scatter", memsys.GTSC, gpu.RC, scatterKernel(0x80000), fault.Config{}, 2},
}

// scatterKernel has eight lanes of every warp load a word of a block
// of their own, so each warp load is eight accesses and a two-entry L1
// MSHR rejects most of them.
func scatterKernel(base mem.Addr) *gpu.Kernel {
	addr := func(t *gpu.Thread) (mem.Addr, bool) {
		return base + mem.Addr(t.GTID*mem.BlockBytes), t.Lane < 8
	}
	return &gpu.Kernel{
		Name: "scatter", CTAs: 4, WarpsPerCTA: 2, Regs: 4,
		ProgramFor: func(*gpu.Warp) gpu.Program {
			return gpu.Seq(gpu.Load(0, addr), gpu.Comp(2))
		},
	}
}

// wakeConfig is the machine a wake case runs on.
func wakeConfig(proto memsys.Protocol, cons gpu.Consistency, plan fault.Config, mshrs int) Config {
	cfg := smallConfig(proto, cons)
	cfg.Mem.Fault = plan
	if mshrs > 0 {
		cfg.Mem.L1MSHRs = mshrs
	}
	return cfg
}

// TestHorizonClaimsSound is the property test behind every fast-forward
// the engine performs: a wake claim must never be early. Stepping a
// simulation in serial tick order, it records each cycle's claims —
// the hierarchy's NextEvent horizon (a bank's timed wake included)
// and, when every SM probes quiescent, the machine-wide wake — and
// then asserts that nothing observable happened strictly before the
// claimed cycle: the progress signature (instructions, warp
// retirements, NoC and DRAM traffic) is frozen and the hierarchy's
// canonical state digest (fault RNG position and held messages
// included) is bit-identical across the window. The engine builds its
// skip windows and agenda wakes from exactly these claims, so an
// overclaiming component would surface here as a state change inside a
// window it promised was inert.
func TestHorizonClaimsSound(t *testing.T) {
	for _, tc := range wakeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(wakeConfig(tc.proto, tc.cons, tc.plan, tc.mshrs))
			s.beginKernel(tc.kernel)

			// The state digest includes each component's local clock,
			// which advances on every Tick — including the provably
			// inert ticks inside a quiet window (a real skip re-syncs
			// those clocks with SyncClocks). Clocks are schedule, not
			// state; strip them before comparing.
			clocks := regexp.MustCompile(` now=\d+`)
			digest := func() uint64 {
				var buf bytes.Buffer
				s.Sys.DigestState(&buf)
				h := fnv.New64a()
				h.Write(clocks.ReplaceAll(buf.Bytes(), nil))
				return h.Sum64()
			}
			type claim struct {
				at    uint64 // cycle the claim was made
				until uint64 // earliest cycle anything may happen
				sig   uint64 // progress signature at claim time
				hier  uint64 // hierarchy digest at claim time
			}
			var c *claim
			windows, parked := 0, 0

			for i := 0; ; i++ {
				if i > 100_000 {
					t.Fatal("step budget exhausted")
				}
				if !stepSerial(t, s) {
					break // kernel completed
				}
				// Verify the outstanding claim before anything else: we
				// are now strictly inside (c.at, c.until), so the machine
				// must not have moved.
				if c != nil && s.now < c.until {
					if got := s.progressSig(); got != c.sig {
						t.Fatalf("progress signature changed at cycle %d inside claimed-quiet window (%d, %d)",
							s.now, c.at, c.until)
					}
					if got := digest(); got != c.hier {
						t.Fatalf("hierarchy state changed at cycle %d inside claimed-quiet window (%d, %d)",
							s.now, c.at, c.until)
					}
					continue // claim still standing; no need to re-probe
				}
				c = nil
				horizon := s.Sys.NextEvent(s.now)
				m := horizon
				headParked := false // a quiescent SM's queued LDST head is parked
				if s.cur.phase == phaseRun {
					// SMs tick in this phase, so a machine-wide claim also
					// needs every SM provably stalled until the window ends.
					for _, sm := range s.SMs {
						p, ok := sm.Quiesce()
						if !ok {
							m = s.now + 1
							break
						}
						m = min(m, p.Wake)
						headParked = headParked || sm.DumpState().LDSTQueue > 0
					}
				}
				if m > s.now+1 {
					c = &claim{at: s.now, until: m, sig: s.progressSig(), hier: digest()}
					windows++
					if headParked {
						parked++
					}
				}
			}
			if windows == 0 {
				t.Fatal("no quiet window was ever claimed; the property test is vacuous")
			}
			if tc.mshrs > 0 && parked == 0 {
				t.Fatal("no window was claimed while an SM's LDST head was parked")
			}
		})
	}
}

// TestComponentWakeClaimsSound is the per-component refinement of
// TestHorizonClaimsSound: the property behind TickDue's dispatch
// decisions. The horizon test proves the MACHINE-wide claim; this one
// probes each component's LOCAL claim — the exact contract the
// per-component dispatcher sleeps on:
//
//   - an L1 reporting Quiescent(), or an L2 whose Wake is Never,
//     promises Tick at any future cycle is a pure no-op until new
//     input arrives;
//   - an L2 whose Wake is a cycle promises Tick at any earlier cycle
//     changes only its clock and WriteStalls, by the blocked writes'
//     per-cycle count for every cycle since its last tick — exactly
//     what SyncClock credits for a sleep;
//   - the NoC's NextWork(now) promises Tick on any earlier cycle only
//     advances its clock;
//   - a DRAM partition's NextEvent(now) promises the same with no clock
//     at all.
//
// Stepping a simulation in serial tick order, every component
// currently claiming quiet is given an EXTRA Tick one cycle in the
// future (a bank with a timed wake also the cycle before the wake, and
// a SyncClock to both), its clock and counters are restored, and its
// canonical state digest must be bit-identical — so each probe is also
// provably invisible to the ongoing run, and the run doubles as
// millions of adversarial inputs. An overclaiming component fails here
// with its name and cycle rather than as a fingerprint mismatch 80
// tests later.
func TestComponentWakeClaimsSound(t *testing.T) {
	for _, tc := range wakeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(wakeConfig(tc.proto, tc.cons, tc.plan, tc.mshrs))
			s.beginKernel(tc.kernel)

			// Component clocks advance on the probe tick by design;
			// SyncClock restores them, and the comparison strips them
			// anyway (clocks are schedule, not state).
			clocks := regexp.MustCompile(` now=\d+`)
			digest := func(d interface{ DigestState(io.Writer) }) uint64 {
				var buf bytes.Buffer
				d.DigestState(&buf)
				h := fnv.New64a()
				h.Write(clocks.ReplaceAll(buf.Bytes(), nil))
				return h.Sum64()
			}

			covered := map[string]int{}
			for i := 0; ; i++ {
				if i > 100_000 {
					t.Fatal("step budget exhausted")
				}
				if !stepSerial(t, s) {
					break // kernel completed
				}
				// Every component ticked at s.now; probe one cycle ahead.
				probe := s.now + 1
				sys := s.Sys
				for j, l1 := range sys.L1s {
					if !l1.Quiescent() {
						continue
					}
					before := digest(l1)
					l1.Tick(probe)
					l1.SyncClock(s.now)
					if digest(l1) != before {
						t.Fatalf("l1[%d] claimed Quiescent at cycle %d but Tick(%d) changed state", j, s.now, probe)
					}
					covered["l1"]++
				}
				for j, l2 := range sys.L2s {
					w := l2.Wake(s.now)
					if w == sched.Hot {
						continue
					}
					before := digest(l2)
					if w == sched.Never {
						l2.Tick(probe)
						l2.SyncClock(s.now)
						if digest(l2) != before {
							t.Fatalf("l2[%d] claimed Wake Never at cycle %d but Tick(%d) changed state", j, s.now, probe)
						}
						covered["l2"]++
						continue
					}
					if w <= s.now {
						t.Fatalf("l2[%d] claimed Wake %d at cycle %d, not a future cycle", j, w, s.now)
					}
					if w == probe {
						continue // no cycle before the wake to probe
					}
					// The serial order ticks this bank at probe: its count
					// is what every cycle of the sleep adds.
					st := l2.Stats()
					counters := *st
					l2.Tick(probe)
					perCycle := st.WriteStalls - counters.WriteStalls
					l2.SyncClock(s.now)
					*st = counters
					if perCycle == 0 {
						t.Fatalf("l2[%d] claimed Wake %d at cycle %d with no write waiting", j, w, s.now)
					}
					for _, c := range []uint64{probe, w - 1} {
						for _, op := range []struct {
							name string
							run  func(uint64)
						}{{"Tick", l2.Tick}, {"SyncClock", l2.SyncClock}} {
							op.run(c)
							want := counters
							want.WriteStalls += perCycle * (c - s.now)
							got := *st
							l2.SyncClock(s.now)
							*st = counters
							if digest(l2) != before {
								t.Fatalf("l2[%d] claimed Wake %d at cycle %d but %s(%d) changed state", j, w, s.now, op.name, c)
							}
							if got != want {
								t.Fatalf("l2[%d] claimed Wake %d at cycle %d: %s(%d) left counters %+v, want %+v",
									j, w, s.now, op.name, c, got, want)
							}
						}
					}
					covered["l2-timed"]++
				}
				if sys.Net.NextWork(s.now) > probe {
					before := digest(sys.Net)
					sys.Net.Tick(probe)
					sys.Net.Sync(s.now)
					if digest(sys.Net) != before {
						t.Fatalf("noc claimed NextWork beyond %d at cycle %d but Tick(%d) changed state", probe, s.now, probe)
					}
					covered["noc"]++
				}
				for j, p := range sys.Parts {
					if p.NextEvent(s.now) <= probe {
						continue
					}
					before := digest(p)
					p.Tick(probe)
					if digest(p) != before {
						t.Fatalf("dram[%d] claimed NextEvent beyond %d at cycle %d but Tick(%d) changed state", j, probe, s.now, probe)
					}
					covered["dram"]++
				}
			}
			classes := []string{"l1", "l2", "noc", "dram"}
			if tc.proto == memsys.TC && tc.cons == gpu.SC {
				classes = append(classes, "l2-timed")
			}
			for _, class := range classes {
				if covered[class] == 0 {
					t.Errorf("component class %q never claimed a quiet cycle; its half of the property test is vacuous", class)
				}
			}
		})
	}
}
