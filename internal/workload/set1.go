package workload

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// The six coherence-requiring benchmarks (paper Fig 12, left cluster).
// Each reproduces its namesake's characteristic sharing pattern as a
// converging relaxation with inter-CTA communication inside one
// kernel; see the package comment for why this class of kernel
// faithfully exercises coherence.

// BH approximates Barnes-Hut's tree walks: depth relaxation over a
// random tree via parent pointers — single-dependency pointer chasing
// with highly irregular, hub-heavy sharing (every path leads to the
// root blocks).
func BH() *Workload {
	return &Workload{
		Name:           "BH",
		Description:    "tree depth relaxation via parent pointers (Barnes-Hut-style irregular tree access)",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			n := 192 * scale
			r := newRNG(11)
			parents := randTreeParents(n, r)
			g := &paddedGraph{n: n, deg: 1, adj: parents}
			weights := make([]uint32, n)
			for i := range weights {
				weights[i] = 1
			}
			weights[0] = 0 // root self-loop contributes nothing
			init := make([]uint32, n)
			const inf = 1 << 20
			for i := 1; i < n; i++ {
				init[i] = inf
			}
			return relaxInstance(relaxSpec{
				name: "BH", g: g, init: init, weights: weights,
				ctas: ctaScale(scale), warpsPerCTA: 1,
			})
		},
	}
}

// CC is connected-components label propagation on a random graph:
// label[v] = min(label[v], label[u]) over undirected neighbors.
func CC() *Workload {
	return &Workload{
		Name:           "CC",
		Description:    "connected-components min-label propagation on a random graph",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			n := 256 * scale
			g := randGraph(n, 4, newRNG(23))
			init := make([]uint32, n)
			for i := range init {
				init[i] = uint32(i)
			}
			return relaxInstance(relaxSpec{
				name: "CC", g: g, init: init,
				ctas: ctaScale(scale), warpsPerCTA: 2,
			})
		},
	}
}

// DLP is a data-parallel Bellman-Ford shortest-path relaxation with
// edge weights (weighted irregular graph traffic with both index and
// value indirection).
func DLP() *Workload {
	return &Workload{
		Name:           "DLP",
		Description:    "Bellman-Ford shortest paths (weighted relaxation, double indirection)",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			n := 224 * scale
			r := newRNG(37)
			g := randGraph(n, 3, r)
			weights := make([]uint32, len(g.adj))
			for i := range weights {
				weights[i] = uint32(1 + r.intn(7))
			}
			init := make([]uint32, n)
			const inf = 1 << 20
			for i := 1; i < n; i++ {
				init[i] = inf
			}
			return relaxInstance(relaxSpec{
				name: "DLP", g: g, init: init, weights: weights,
				ctas: ctaScale(scale), warpsPerCTA: 2,
			})
		},
	}
}

// VPR approximates placement-style netlist iteration: max-propagation
// over a bipartite cells/nets hypergraph (every net touches several
// cells; iterating cells and nets couples distant CTAs quickly).
func VPR() *Workload {
	return &Workload{
		Name:           "VPR",
		Description:    "bipartite cells/nets max-propagation (place-and-route netlist iteration)",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			cells := 160 * scale
			nets := 96 * scale
			deg := 3
			r := newRNG(53)
			n := cells + nets
			g := &paddedGraph{n: n, deg: deg, adj: make([]uint32, n*deg)}
			// Cells point at random nets; nets point at random cells.
			for c := 0; c < cells; c++ {
				for j := 0; j < deg; j++ {
					g.adj[c*deg+j] = uint32(cells + r.intn(nets))
				}
			}
			for nt := 0; nt < nets; nt++ {
				v := cells + nt
				for j := 0; j < deg; j++ {
					g.adj[v*deg+j] = uint32(r.intn(cells))
				}
			}
			init := make([]uint32, n)
			for i := range init {
				init[i] = uint32(r.intn(1 << 16))
			}
			return relaxInstance(relaxSpec{
				name: "VPR", g: g, init: init, useMax: true,
				ctas: ctaScale(scale), warpsPerCTA: 2,
			})
		},
	}
}

// STN is a 2D five-point stencil distance transform: regular,
// coalesced addressing whose halo rows are owned by neighboring CTAs —
// the classic inter-block stencil exchange.
func STN() *Workload {
	return &Workload{
		Name:           "STN",
		Description:    "2D stencil distance transform with inter-CTA halo sharing",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			h := 16 * scale
			w := 32
			return stencilInstance(h, w, ctaScale(scale), 2)
		},
	}
}

// BFS relaxes BFS levels over a scale-free graph from a single source:
// dist[v] = min(dist[v], dist[u]+1). Hub vertices concentrate sharing.
func BFS() *Workload {
	return &Workload{
		Name:           "BFS",
		Description:    "BFS level relaxation on a scale-free graph (hub-concentrated sharing)",
		NeedsCoherence: true,
		Build: func(scale int) *Instance {
			n := 288 * scale
			g := scaleFreeGraph(n, 4, 8, newRNG(71))
			weights := make([]uint32, len(g.adj))
			for i := range weights {
				weights[i] = 1
			}
			init := make([]uint32, n)
			const inf = 1 << 20
			for i := 1; i < n; i++ {
				init[i] = inf
			}
			// Self-padded edges would add +1 to self distance, which is
			// harmless (min(d, d+1) = d), so padding needs no special case.
			return relaxInstance(relaxSpec{
				name: "BFS", g: g, init: init, weights: weights,
				ctas: ctaScale(scale), warpsPerCTA: 2,
			})
		},
	}
}

// stencilInstance builds STN: cells owned grid-stride by rows; each
// iteration reads the four neighbors directly (no indirection) and
// stores the min+1 relaxation.
func stencilInstance(h, w, ctas, warpsPerCTA int) *Instance {
	n := h * w
	lay := newLayout(0x400000)
	valBase := lay.array(n)

	init := make([]uint32, n)
	const inf = 1 << 20
	for i := range init {
		init[i] = inf
	}
	// Deterministic seeds sprinkled over the grid.
	r := newRNG(97)
	for s := 0; s < max(1, n/64); s++ {
		init[r.intn(n)] = 0
	}

	// Sequential fixpoint.
	grid := &paddedGraph{n: n, deg: 4, adj: make([]uint32, n*4)}
	weights := make([]uint32, n*4)
	for i := 0; i < h; i++ {
		for j := 0; j < w; j++ {
			v := i*w + j
			nb := [4]int{v, v, v, v}
			if i > 0 {
				nb[0] = v - w
			}
			if i < h-1 {
				nb[1] = v + w
			}
			if j > 0 {
				nb[2] = v - 1
			}
			if j < w-1 {
				nb[3] = v + 1
			}
			for k, u := range nb {
				grid.adj[v*4+k] = uint32(u)
				weights[v*4+k] = 1
			}
		}
	}
	fix, rounds := minRelaxFixpoint(grid, init, weights)
	jrounds := jacobiRounds(grid, init, weights, false)
	iters := max(rounds*2, jrounds*2) + 6

	totalThreads := ctas * warpsPerCTA * gpu.WarpWidth
	maxOwned := (n + totalThreads - 1) / totalThreads

	ctrAddr := lay.array(1) // global-barrier counter

	kernel := &gpu.Kernel{
		Name:           "STN",
		CTAs:           ctas,
		WarpsPerCTA:    warpsPerCTA,
		Regs:           5,
		NeedsCoherence: true,
		Init:           func(store *mem.Store) { writeArray(store, valBase, init) },
		ProgramFor: globalLoop(iters, ctas, ctrAddr, func() []*gpu.Instr {
			var body []*gpu.Instr
			for k := 0; k < maxOwned; k++ {
				k := k
				cell := func(t *gpu.Thread) (int, bool) {
					v := t.GTID + k*totalThreads
					return v, v < n
				}
				own := func(t *gpu.Thread) (mem.Addr, bool) {
					v, ok := cell(t)
					if !ok {
						return 0, false
					}
					return wordAddr(valBase, v), true
				}
				body = append(body, gpu.Load(0, own))
				for d := 0; d < 4; d++ {
					d := d
					body = append(body, gpu.Load(1, func(t *gpu.Thread) (mem.Addr, bool) {
						v, ok := cell(t)
						if !ok {
							return 0, false
						}
						i, j := v/w, v%w
						switch d {
						case 0:
							if i > 0 {
								v -= w
							}
						case 1:
							if i < h-1 {
								v += w
							}
						case 2:
							if j > 0 {
								v--
							}
						case 3:
							if j < w-1 {
								v++
							}
						}
						return wordAddr(valBase, v), true
					}))
					body = append(body, gpu.ALU(func(t *gpu.Thread) {
						t.Regs[0] = min(t.Regs[0], t.Regs[1]+1)
					}, 0, 1))
				}
				body = append(body, gpu.Store(own, func(t *gpu.Thread) uint32 { return t.Regs[0] }, 0))
			}
			return body
		}),
	}

	return &Instance{
		Kernels: []*gpu.Kernel{kernel},
		Verify: func(read func(mem.Addr) uint32) error {
			got := readBack(read, valBase, n)
			if err := compareArrays("STN grid", got, fix); err != nil {
				return fmt.Errorf("%w (fixpoint needs %d rounds, ran %d iterations)", err, rounds, iters)
			}
			return nil
		},
	}
}
