package workload

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// relaxSpec describes a converging relaxation kernel over a padded
// adjacency structure — the shared skeleton of the coherence-requiring
// benchmarks. Every iteration, each thread reduces its owned vertices'
// values with op over their neighbors' values (+ optional edge
// weight), stores the result, and fences. Vertices are distributed
// grid-stride across all CTAs, so neighbor reads routinely cross CTA
// (and SM) boundaries: the kernel only converges to the sequential
// fixpoint if the memory system propagates stores between private
// caches — i.e. it requires coherence.
type relaxSpec struct {
	name string
	g    *paddedGraph
	init []uint32
	// weights, if non-nil, adds adj-parallel edge weights to the
	// relaxed value (Bellman-Ford flavour).
	weights []uint32
	// useMax switches from min- to max-propagation (VPR).
	useMax bool
	// iters overrides the iteration count; 0 derives it from the
	// sequential convergence round count with a staleness allowance.
	iters int

	ctas        int
	warpsPerCTA int
}

// relaxInstance materializes the spec: memory layout, kernel, verifier.
func relaxInstance(spec relaxSpec) *Instance {
	g := spec.g
	lay := newLayout(0x100000)
	valBase := lay.array(g.n)
	adjBase := lay.array(len(g.adj))
	var wBase mem.Addr
	if spec.weights != nil {
		wBase = lay.array(len(spec.weights))
	}

	var fix []uint32
	var rounds int
	if spec.useMax {
		fix, rounds = maxRelaxFixpoint(g, spec.init)
	} else {
		fix, rounds = minRelaxFixpoint(g, spec.init, spec.weights)
	}
	iters := spec.iters
	if iters == 0 {
		// The grid barrier makes each iteration one synchronous
		// (Jacobi) round for coherent protocols; time-based staleness
		// (TC leases outliving an iteration) gets 2x headroom + slack.
		jrounds := jacobiRounds(g, spec.init, spec.weights, spec.useMax)
		iters = max(rounds*2, jrounds*2) + 6
	}

	totalThreads := spec.ctas * spec.warpsPerCTA * gpu.WarpWidth
	maxOwned := (g.n + totalThreads - 1) / totalThreads

	ctrAddr := lay.array(1) // global-barrier counter

	kernel := &gpu.Kernel{
		Name:           spec.name,
		CTAs:           spec.ctas,
		WarpsPerCTA:    spec.warpsPerCTA,
		Regs:           5, // r0..r3 relax, r4 barrier counter
		NeedsCoherence: true,
		Init: func(store *mem.Store) {
			writeArray(store, valBase, spec.init)
			writeArray(store, adjBase, g.adj)
			if spec.weights != nil {
				writeArray(store, wBase, spec.weights)
			}
		},
		// The grid-wide barrier makes every iteration one synchronous
		// relaxation round (see globalSync).
		ProgramFor: globalLoop(iters, spec.ctas, ctrAddr, func() []*gpu.Instr {
			return relaxBody(spec, g, valBase, adjBase, wBase, totalThreads, maxOwned)
		}),
	}

	return &Instance{
		Kernels: []*gpu.Kernel{kernel},
		Verify: func(read func(mem.Addr) uint32) error {
			got := readBack(read, valBase, g.n)
			if err := compareArrays(spec.name+" values", got, fix); err != nil {
				return fmt.Errorf("%w (fixpoint needs %d rounds, ran %d iterations)", err, rounds, iters)
			}
			return nil
		},
	}
}

// relaxBody builds the per-iteration instruction slice. Registers:
// r0 = accumulator, r1 = neighbor id, r2 = neighbor value, r3 = weight.
func relaxBody(spec relaxSpec, g *paddedGraph, valBase, adjBase, wBase mem.Addr, totalThreads, maxOwned int) []*gpu.Instr {
	var body []*gpu.Instr
	vertexOf := func(t *gpu.Thread, k int) (int, bool) {
		v := t.GTID + k*totalThreads
		return v, v < g.n
	}
	for k := 0; k < maxOwned; k++ {
		k := k
		ownAddr := func(t *gpu.Thread) (mem.Addr, bool) {
			v, ok := vertexOf(t, k)
			if !ok {
				return 0, false
			}
			return wordAddr(valBase, v), true
		}
		body = append(body, gpu.Load(0, ownAddr))
		for j := 0; j < g.deg; j++ {
			j := j
			body = append(body, gpu.Load(1, func(t *gpu.Thread) (mem.Addr, bool) {
				v, ok := vertexOf(t, k)
				if !ok {
					return 0, false
				}
				return wordAddr(adjBase, v*g.deg+j), true
			}))
			body = append(body, gpu.Load(2, func(t *gpu.Thread) (mem.Addr, bool) {
				if _, ok := vertexOf(t, k); !ok {
					return 0, false
				}
				return wordAddr(valBase, int(t.Regs[1])), true
			}, 1))
			if spec.weights != nil {
				body = append(body, gpu.Load(3, func(t *gpu.Thread) (mem.Addr, bool) {
					v, ok := vertexOf(t, k)
					if !ok {
						return 0, false
					}
					return wordAddr(wBase, v*g.deg+j), true
				}))
				// Inactive lanes compute junk into r0 but never store
				// it (their Store lane is inactive too).
				body = append(body, gpu.ALU(func(t *gpu.Thread) {
					t.Regs[0] = min(t.Regs[0], t.Regs[2]+t.Regs[3])
				}, 0, 2, 3))
			} else if spec.useMax {
				body = append(body, gpu.ALU(func(t *gpu.Thread) {
					t.Regs[0] = max(t.Regs[0], t.Regs[2])
				}, 0, 2))
			} else {
				body = append(body, gpu.ALU(func(t *gpu.Thread) {
					t.Regs[0] = min(t.Regs[0], t.Regs[2])
				}, 0, 2))
			}
		}
		body = append(body, gpu.Store(ownAddr, func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))
	}
	return body
}
