package workload

import (
	"sync"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// globalLoop returns a ProgramFor running iters iterations of body,
// each but the last followed by a grid-wide barrier on the counter at
// ctrAddr. Like seq and loop, it builds the instructions on the first
// call and every warp walks the shared globalSync.
func globalLoop(iters, ctas int, ctrAddr mem.Addr, body func() []*gpu.Instr) func(*gpu.Warp) gpu.Program {
	g := sync.OnceValue(func() *globalSync { return newGlobalSync(body(), iters, ctas, ctrAddr) })
	return func(*gpu.Warp) gpu.Program { return &globalSyncProgram{globalSync: g()} }
}

// globalSync is a kernel's iteration body followed by a grid-wide
// barrier, the classic GPU software global barrier (Xiao & Feng):
// every warp fences and joins a CTA barrier; warp 0 of each CTA then
// bumps a global atomic counter and polls it (atomics serialize at the
// L2, so polling makes progress under every protocol — including
// G-TSC, where a plain-load spin on a cached block would never see the
// update); a second CTA barrier releases the other warps.
//
// The barrier makes each iteration one exact synchronous (Jacobi)
// relaxation round for coherent protocols, so fixpoint convergence is
// timing-independent; under the non-coherent L1 the *data* reads still
// go stale, preserving the workloads' "requires coherence" property.
//
// A globalSync holds the kernel's warp-invariant instructions, built
// once and shared read-only by every warp's globalSyncProgram.
type globalSync struct {
	body  []*gpu.Instr
	iters int
	ctas  int

	// lead is warp 0's epilogue (fence, CTA barrier, arrive, spin,
	// CTA barrier); rest is every other warp's (fence and the two CTA
	// barriers).
	lead, rest []*gpu.Instr
	// backoff and poll alternate while warp 0 spins on the counter.
	backoff, poll *gpu.Instr
}

// barrier register: the relax bodies use r0..r3; the counter poll
// lands in r4 (kernels must declare Regs >= 5).
const barReg = 4

func newGlobalSync(body []*gpu.Instr, iters, ctas int, ctrAddr mem.Addr) *globalSync {
	ctr := func(t *gpu.Thread) (mem.Addr, bool) { return ctrAddr, t.Lane == 0 }
	return &globalSync{
		body: body, iters: iters, ctas: ctas,
		lead: []*gpu.Instr{
			gpu.Fence(),
			gpu.Barrier(),
			// Arrive: announce this CTA and read the count so far.
			gpu.Atomic(mem.AtomAdd, barReg, ctr, func(*gpu.Thread) uint32 { return 1 }),
			gpu.ALU(func(t *gpu.Thread) { t.Regs[barReg]++ }, barReg), // old+1 = count incl. us
			nil, // spin marker: re-polls until the count reaches the target
			gpu.Barrier(),
		},
		rest:    []*gpu.Instr{gpu.Fence(), gpu.Barrier(), gpu.Barrier()},
		backoff: gpu.Comp(24),
		// An atomic +0 re-read of the counter (uncached; serializes at
		// the L2).
		poll: gpu.Atomic(mem.AtomAdd, barReg, ctr, func(*gpu.Thread) uint32 { return 0 }),
	}
}

// globalSyncProgram is one warp's walk over its kernel's globalSync.
type globalSyncProgram struct {
	*globalSync

	iter        int
	phase       int // 0 body, 1 epilogue
	pc          int
	queue       []*gpu.Instr
	qi          int
	backoffNext bool
}

// Next implements gpu.Program.
func (p *globalSyncProgram) Next(w *gpu.Warp) (*gpu.Instr, bool) {
	for {
		switch p.phase {
		case 0: // iteration body
			if p.iter >= p.iters {
				return nil, true
			}
			if p.pc < len(p.body) {
				i := p.body[p.pc]
				p.pc++
				return i, true
			}
			p.pc = 0
			if p.iter == p.iters-1 {
				// No barrier after the final iteration.
				p.iter++
				continue
			}
			p.phase = 1
			// Warp 0 of the CTA arrives at the counter and spins; the
			// rest just meet the two CTA barriers.
			p.queue = p.rest
			if w.InCTA == 0 {
				p.queue = p.lead
			}
			p.qi = 0
		case 1: // fence + global barrier
			if p.qi < len(p.queue) {
				i := p.queue[p.qi]
				// The spin re-enqueues itself until the counter
				// reaches the target; gate on the poll result.
				if i == nil {
					if !w.RegsReady(barReg) {
						return nil, false
					}
					target := uint32(p.ctas * (p.iter + 1))
					if w.Reg(0, barReg) >= target {
						p.qi++ // spin satisfied
						continue
					}
					// Poll again: back off, then re-read.
					return p.pollInstr(), true
				}
				p.qi++
				return i, true
			}
			p.phase = 0
			p.iter++
		}
	}
}

// pollInstr alternates a short backoff with the counter re-read. The
// program counter stays on the spin marker, so Next re-evaluates the
// loaded count after every read.
func (p *globalSyncProgram) pollInstr() *gpu.Instr {
	if p.backoffNext {
		p.backoffNext = false
		return p.poll
	}
	p.backoffNext = true
	return p.backoff
}
