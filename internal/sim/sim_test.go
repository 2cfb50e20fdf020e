package sim

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
)

// smallConfig builds a modest machine so tests run fast: 4 SMs, 4 L2
// banks, small caches.
func smallConfig(p memsys.Protocol, c gpu.Consistency) Config {
	cfg := DefaultConfig()
	cfg.Mem.Protocol = p
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 4
	cfg.Mem.L1Sets = 8
	cfg.Mem.L1Ways = 2
	cfg.Mem.L1MSHRs = 8
	cfg.Mem.L2Sets = 32
	cfg.Mem.L2Ways = 4
	cfg.SM.Consistency = c
	cfg.MaxCycles = 5_000_000
	return cfg
}

// writeReadKernel has every thread store a unique value to its own
// word, fence, and load it back.
func writeReadKernel(base mem.Addr) *gpu.Kernel {
	addr := func(t *gpu.Thread) (mem.Addr, bool) {
		return base + mem.Addr(t.GTID*4), true
	}
	return &gpu.Kernel{
		Name: "write-read", CTAs: 4, WarpsPerCTA: 2, Regs: 4,
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			return gpu.Seq(
				gpu.Store(addr, func(t *gpu.Thread) uint32 { return uint32(t.GTID) + 1 }),
				gpu.Fence(),
				gpu.Load(0, addr),
				gpu.Comp(3),
			)
		},
	}
}

func allConfigs() []struct {
	name string
	p    memsys.Protocol
	c    gpu.Consistency
} {
	return []struct {
		name string
		p    memsys.Protocol
		c    gpu.Consistency
	}{
		{"gtsc-sc", memsys.GTSC, gpu.SC},
		{"gtsc-rc", memsys.GTSC, gpu.RC},
		{"tc-sc", memsys.TC, gpu.SC},
		{"tc-rc", memsys.TC, gpu.RC},
		{"bl-sc", memsys.BL, gpu.SC},
		{"bl-rc", memsys.BL, gpu.RC},
		{"l1nc-sc", memsys.L1NC, gpu.SC},
		{"l1nc-rc", memsys.L1NC, gpu.RC},
	}
}

func TestWriteReadAllProtocols(t *testing.T) {
	const base = mem.Addr(0x10000)
	for _, tc := range allConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.p, tc.c)
			rec := check.NewRecorder()
			cfg.Observer = rec
			s := New(cfg)
			kernel := writeReadKernel(base)
			run, err := s.Run(kernel)
			if err != nil {
				t.Fatal(err)
			}
			threads := kernel.CTAs * kernel.WarpsPerCTA * gpu.WarpWidth
			for i := 0; i < threads; i++ {
				got := s.ReadWord(base + mem.Addr(i*4))
				if got != uint32(i)+1 {
					t.Fatalf("word %d: got %d, want %d", i, got, i+1)
				}
			}
			loads, stores := check.Summary(rec.Ops())
			if wantAcc := threads / gpu.WarpWidth; loads < wantAcc || stores < wantAcc {
				t.Fatalf("observed %d loads, %d stores; want >= %d each", loads, stores, wantAcc)
			}
			if tc.p == memsys.GTSC {
				if v := check.CheckTimestampOrder(rec.Ops(), 5); len(v) > 0 {
					t.Fatalf("timestamp order violated: %v", v[0].Error())
				}
			}
			if run.Cycles == 0 || run.SM.InstrIssued == 0 {
				t.Fatalf("empty run stats: %+v", run)
			}
		})
	}
}

// conflictKernel makes every warp hammer a small shared region with
// read-modify-write traffic — a protocol stress test.
func conflictKernel(base mem.Addr, iters, sharedWords int) *gpu.Kernel {
	addr := func(t *gpu.Thread) (mem.Addr, bool) {
		// All CTAs collide over sharedWords words.
		return base + mem.Addr((t.GTID%sharedWords)*4), true
	}
	return &gpu.Kernel{
		Name: "conflict", CTAs: 4, WarpsPerCTA: 2, Regs: 4, NeedsCoherence: true,
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			return &gpu.LoopProgram{
				Iters: iters,
				Body: func(iter int) []*gpu.Instr {
					return []*gpu.Instr{
						gpu.Load(0, addr),
						gpu.Comp(2),
						gpu.Store(addr, func(t *gpu.Thread) uint32 {
							return t.Regs[0] + 1
						}, 0),
						gpu.Fence(),
					}
				},
			}
		},
	}
}

func TestConflictStress(t *testing.T) {
	const base = mem.Addr(0x40000)
	for _, tc := range allConfigs() {
		if tc.p == memsys.L1NC {
			continue // non-coherent L1 is not expected to survive sharing
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.p, tc.c)
			rec := check.NewRecorder()
			cfg.Observer = rec
			s := New(cfg)
			if _, err := s.Run(conflictKernel(base, 6, 16)); err != nil {
				t.Fatal(err)
			}
			if tc.p == memsys.GTSC {
				if v := check.CheckTimestampOrder(rec.Ops(), 3); len(v) > 0 {
					t.Fatalf("timestamp order violated: %v", v[0].Error())
				}
				if tc.c == gpu.SC {
					if errs := check.CheckWarpMonotonic(rec.Ops()); len(errs) > 0 {
						t.Fatalf("warp timestamps not monotonic under SC: %v", errs[0])
					}
				}
			}
			if tc.p == memsys.BL || (tc.p == memsys.TC && tc.c == gpu.SC) {
				if v := check.CheckPhysical(rec.Ops(), 3); len(v) > 0 {
					t.Fatalf("physical order violated: %v", v[0].Error())
				}
			}
		})
	}
}

// TestBackToBackKernels runs two dependent kernels and checks the
// second sees the first's output through the kernel-boundary flush.
func TestBackToBackKernels(t *testing.T) {
	const base = mem.Addr(0x80000)
	addr := func(t *gpu.Thread) (mem.Addr, bool) { return base + mem.Addr(t.GTID*4), true }
	k1 := &gpu.Kernel{
		Name: "producer", CTAs: 2, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			return gpu.Seq(gpu.Store(addr, func(t *gpu.Thread) uint32 { return uint32(t.GTID) * 3 }))
		},
	}
	k2 := &gpu.Kernel{
		Name: "consumer", CTAs: 2, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			return gpu.Seq(
				gpu.Load(0, addr),
				gpu.Store(func(t *gpu.Thread) (mem.Addr, bool) {
					return base + mem.Addr(0x1000) + mem.Addr(t.GTID*4), true
				}, func(t *gpu.Thread) uint32 { return t.Regs[0] + 7 }, 0),
			)
		},
	}
	for _, tc := range allConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			s := New(smallConfig(tc.p, tc.c))
			if _, err := s.Run(k1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(k2); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*gpu.WarpWidth; i++ {
				got := s.ReadWord(base + 0x1000 + mem.Addr(i*4))
				want := uint32(i)*3 + 7
				if got != want {
					t.Fatalf("thread %d: got %d, want %d", i, got, want)
				}
			}
		})
	}
}
