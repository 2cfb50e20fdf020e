package workload

import (
	"fmt"
	"sync"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// A kernel's instructions are warp-invariant (only the per-thread
// registers they read differ), so every kernel builds them once, on
// its first ProgramFor call, and every warp shares them read-only (the
// contract on gpu.Kernel). That call runs inside Simulator.Run, on the
// single-threaded CTA fill path, so an instance that is never run
// never pays for its instructions. seq, loop and globalLoop (sync.go)
// are the three shapes.

// seq returns a ProgramFor replaying build's instructions once, in
// order.
func seq(build func() []*gpu.Instr) func(*gpu.Warp) gpu.Program {
	body := sync.OnceValue(build)
	return func(*gpu.Warp) gpu.Program { return gpu.Seq(body()...) }
}

// loop returns a ProgramFor running iters iterations of a LoopProgram
// whose Body replays a table of build(i), one entry per iteration.
func loop(iters int, build func(i int) []*gpu.Instr) func(*gpu.Warp) gpu.Program {
	body := sync.OnceValue(func() func(int) []*gpu.Instr {
		table := make([][]*gpu.Instr, iters)
		for i := range table {
			table[i] = build(i)
		}
		return func(i int) []*gpu.Instr { return table[i] }
	})
	return func(*gpu.Warp) gpu.Program { return &gpu.LoopProgram{Iters: iters, Body: body()} }
}

// rng is a small deterministic xorshift64* generator so workload
// construction is reproducible without math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// intn returns a value in [0, n). A power-of-two n, what the
// generators mostly draw, takes the low bits instead of a division:
// the same value, at a fraction of the cost of set-up's hottest call.
func (r *rng) intn(n int) int {
	x := r.next()
	if n > 0 && n&(n-1) == 0 {
		return int(x & uint64(n-1))
	}
	return int(x % uint64(n))
}

// layout is a bump allocator over the simulated address space,
// block-aligning each array so workloads' regions do not false-share.
type layout struct{ next mem.Addr }

func newLayout(base mem.Addr) *layout { return &layout{next: base} }

// array reserves words 4-byte words and returns the base address.
func (l *layout) array(words int) mem.Addr {
	a := l.next
	bytes := mem.Addr(words * 4)
	// round the next region up to a block boundary
	l.next = (a + bytes + mem.BlockBytes - 1) &^ (mem.BlockBytes - 1)
	return a
}

// wordAddr indexes a uint32 array at base.
func wordAddr(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*4) }

// writeArray stores a uint32 slice into the backing store.
func writeArray(store *mem.Store, base mem.Addr, vals []uint32) {
	for i, v := range vals {
		store.WriteWord(wordAddr(base, i), v)
	}
}

// readBack reads words [0,n) of an array through the verifier's read
// function.
func readBack(read func(mem.Addr) uint32, base mem.Addr, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = read(wordAddr(base, i))
	}
	return out
}

// compareArrays reports the first mismatch between got and want.
func compareArrays(what string, got, want []uint32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d]: got %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}

// paddedGraph is an adjacency structure padded to a fixed degree so
// warp programs are static: vertex v's neighbors are
// adj[v*deg .. v*deg+deg-1], padded with self-loops.
type paddedGraph struct {
	n   int
	deg int
	adj []uint32
}

// randGraph builds an undirected random graph of n vertices with
// degree deg (self-loop padded). Every vertex also gets a ring edge to
// (v+1)%n so the graph is connected and its structure deterministic.
func randGraph(n, deg int, r *rng) *paddedGraph {
	if deg < 2 {
		panic("workload: randGraph needs degree >= 2")
	}
	g := &paddedGraph{n: n, deg: deg, adj: make([]uint32, n*deg)}
	for v := 0; v < n; v++ {
		g.adj[v*deg] = uint32((v + 1) % n) // ring edge: connectivity
		g.adj[v*deg+1] = uint32((v + n - 1) % n)
		for j := 2; j < deg; j++ {
			g.adj[v*deg+j] = uint32(r.intn(n))
		}
	}
	return g
}

// scaleFreeGraph builds a preferential-attachment-flavoured graph: a
// few hub vertices attract most edges (BFS's irregular fan-in/fan-out).
func scaleFreeGraph(n, deg, hubs int, r *rng) *paddedGraph {
	g := &paddedGraph{n: n, deg: deg, adj: make([]uint32, n*deg)}
	for v := 0; v < n; v++ {
		g.adj[v*deg] = uint32((v + 1) % n)
		for j := 1; j < deg; j++ {
			if r.intn(100) < 60 {
				g.adj[v*deg+j] = uint32(r.intn(hubs)) // hub edge
			} else {
				g.adj[v*deg+j] = uint32(r.intn(n))
			}
		}
	}
	return g
}

// randTreeParents builds a random tree's parent array: parent[0]=0
// (root), parent[v] uniform in [0, v).
func randTreeParents(n int, r *rng) []uint32 {
	p := make([]uint32, n)
	for v := 1; v < n; v++ {
		if v == 1 {
			p[v] = 0
		} else {
			p[v] = uint32(r.intn(v))
		}
	}
	return p
}

// minRelaxFixpoint runs dist[v] = min(dist[v], dist[adj]+w) over the
// padded graph until no change and returns the fixpoint and the number
// of rounds taken. weights may be nil (treated as all-zero, pure min
// propagation) or per-edge (same layout as adj).
func minRelaxFixpoint(g *paddedGraph, init []uint32, weights []uint32) (fix []uint32, rounds int) {
	dist := make([]uint32, g.n)
	copy(dist, init)
	for {
		changed := false
		for v := 0; v < g.n; v++ {
			for j := 0; j < g.deg; j++ {
				u := int(g.adj[v*g.deg+j])
				w := uint32(0)
				if weights != nil {
					w = weights[v*g.deg+j]
				}
				if cand := dist[u] + w; cand < dist[v] {
					dist[v] = cand
					changed = true
				}
			}
		}
		rounds++
		if !changed {
			return dist, rounds
		}
	}
}

// jacobiRounds returns the rounds a synchronous (Jacobi) relaxation
// needs: all cells update from the previous round's values. Chaotic
// parallel execution converges at least this fast when reads are
// coherent, so iteration allowances derive from it.
func jacobiRounds(g *paddedGraph, init []uint32, weights []uint32, useMax bool) int {
	cur := make([]uint32, g.n)
	copy(cur, init)
	next := make([]uint32, g.n)
	for rounds := 1; ; rounds++ {
		changed := false
		copy(next, cur)
		for v := 0; v < g.n; v++ {
			for j := 0; j < g.deg; j++ {
				u := int(g.adj[v*g.deg+j])
				w := uint32(0)
				if weights != nil {
					w = weights[v*g.deg+j]
				}
				if useMax {
					if cur[u] > next[v] {
						next[v] = cur[u]
						changed = true
					}
				} else if cand := cur[u] + w; cand < next[v] {
					next[v] = cand
					changed = true
				}
			}
		}
		cur, next = next, cur
		if !changed {
			return rounds
		}
	}
}

// maxRelaxFixpoint is the max-propagation analogue (VPR).
func maxRelaxFixpoint(g *paddedGraph, init []uint32) (fix []uint32, rounds int) {
	val := make([]uint32, g.n)
	copy(val, init)
	for {
		changed := false
		for v := 0; v < g.n; v++ {
			for j := 0; j < g.deg; j++ {
				u := int(g.adj[v*g.deg+j])
				if val[u] > val[v] {
					val[v] = val[u]
					changed = true
				}
			}
		}
		rounds++
		if !changed {
			return val, rounds
		}
	}
}

// ctaScale grows the grid with the workload scale so larger machines
// stay fully occupied (capped at 32 CTAs).
func ctaScale(scale int) int {
	return min(8*scale, 32)
}

// always adapts a plain address function to the (addr, active) form.
func always(f func(t *gpu.Thread) mem.Addr) func(t *gpu.Thread) (mem.Addr, bool) {
	return func(t *gpu.Thread) (mem.Addr, bool) { return f(t), true }
}
