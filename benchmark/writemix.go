package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// mixShape sizes one write_mix instance. The operation mix per warp is
// fixed, so every seed does the same amount of work; the seed only
// moves addresses, values, and the order of operations:
//
//   - 40% loads from the shared read set;
//   - 10% loads of one of the thread's own words, which leaves leases
//     and sharers on the falsely shared blocks that other CTAs store
//     to (TC-Strong write stalls, directory invalidations). Their
//     values are not checked: without a fence, RC does not order a
//     load after the same thread's pending store;
//   - 30% stores to the thread's own words;
//   - 15% atomic adds to the hot set;
//   - the rest fences.
type mixShape struct {
	CTAs        int // every owned-word block holds one word of each CTA
	WarpsPerCTA int
	Ops         int // memory operations per warp
	ReadWords   int // shared read-only set
	OwnWords    int // words each thread owns and stores to
	HotWords    int // atomic targets shared by the whole grid
	StreamWords int // streaming-store kernel output; 0 omits the kernel
}

// Region bases in the simulated address space, block aligned and far
// enough apart that no shape overlaps them.
const (
	mixReadBase   mem.Addr = 0x1000_0000
	mixOwnBase    mem.Addr = 0x2000_0000
	mixHotBase    mem.Addr = 0x3000_0000
	mixStreamBase mem.Addr = 0x4000_0000
)

type mixKind uint8

const (
	mixLoad mixKind = iota
	mixLoadOwn
	mixStore
	mixAtomic
	mixFence
)

// mixOp is one warp-wide memory operation. r is the operation's draw:
// the read-set offset of a load, the owned-word index of an own-word
// load or a store, the hot-set offset of an atomic.
type mixOp struct {
	kind mixKind
	r    int
}

// mixImage is the architected memory a correct run must leave behind.
type mixImage struct {
	read, own, hot, stream []uint32
}

// mixInstance is one generated write_mix instance and its expected
// final image.
type mixInstance struct {
	shape mixShape
	ops   [][]mixOp // per global warp (CTA*WarpsPerCTA + warp in CTA)
	want  mixImage
}

// newWriteMix generates an instance from seed. Each warp gets its own
// PCG stream, so instances for different seeds share no draws.
func newWriteMix(shape mixShape, seed uint64) *mixInstance {
	m := &mixInstance{shape: shape}
	init := rand.New(rand.NewPCG(seed, 0))
	m.want.read = make([]uint32, shape.ReadWords)
	for i := range m.want.read {
		m.want.read[i] = uint32(init.IntN(1 << 16))
	}
	threadsPerCTA := shape.WarpsPerCTA * gpu.WarpWidth
	m.want.own = make([]uint32, shape.CTAs*threadsPerCTA*shape.OwnWords)
	m.want.hot = make([]uint32, shape.HotWords)

	loads := shape.Ops * 40 / 100
	ownLoads := shape.Ops * 10 / 100
	stores := shape.Ops * 30 / 100
	atomics := shape.Ops * 15 / 100
	warps := shape.CTAs * shape.WarpsPerCTA
	m.ops = make([][]mixOp, warps)
	for gw := range m.ops {
		r := rand.New(rand.NewPCG(seed, uint64(gw)+1))
		ops := make([]mixOp, shape.Ops)
		for i := range ops {
			switch {
			case i < loads:
				ops[i] = mixOp{mixLoad, r.IntN(shape.ReadWords)}
			case i < loads+ownLoads:
				ops[i] = mixOp{mixLoadOwn, r.IntN(shape.OwnWords)}
			case i < loads+ownLoads+stores:
				ops[i] = mixOp{mixStore, r.IntN(shape.OwnWords)}
			case i < loads+ownLoads+stores+atomics:
				ops[i] = mixOp{mixAtomic, r.IntN(shape.HotWords)}
			default:
				ops[i] = mixOp{kind: mixFence}
			}
		}
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		m.ops[gw] = ops
		m.replay(gw)
	}

	m.want.stream = make([]uint32, shape.StreamWords)
	for i := range m.want.stream {
		m.want.stream[i] = streamValue(i)
	}
	return m
}

// replay applies warp gw's operations to the expected image in program
// order, exactly as the kernel's lanes perform them.
func (m *mixInstance) replay(gw int) {
	cta, inCTA := gw/m.shape.WarpsPerCTA, gw%m.shape.WarpsPerCTA
	var loaded [gpu.WarpWidth]uint32 // register 0 per lane: the last read-set load
	seq := 0
	for _, op := range m.ops[gw] {
		for lane := 0; lane < gpu.WarpWidth; lane++ {
			tid := inCTA*gpu.WarpWidth + lane
			switch op.kind {
			case mixLoad:
				loaded[lane] = m.want.read[m.readIndex(op.r, lane)]
			case mixStore:
				m.want.own[m.ownIndex(cta, tid, op.r)] = storeValue(m.gtid(cta, tid), seq+1)
			case mixAtomic:
				m.want.hot[m.hotIndex(op.r, lane)] += atomicOperand(loaded[lane])
			}
		}
		if op.kind == mixStore {
			seq++
		}
	}
}

func (m *mixInstance) gtid(cta, tid int) int {
	return cta*m.shape.WarpsPerCTA*gpu.WarpWidth + tid
}

func (m *mixInstance) readIndex(r, lane int) int { return (r + lane) % m.shape.ReadWords }

func (m *mixInstance) hotIndex(r, lane int) int { return (r + lane) % m.shape.HotWords }

// ownIndex interleaves owned words so that the words of one block
// belong to consecutive CTAs: with 32 CTAs, every CTA stores into
// every block it owns a word of (false sharing).
func (m *mixInstance) ownIndex(cta, tid, j int) int {
	threadsPerCTA := m.shape.WarpsPerCTA * gpu.WarpWidth
	return (j*threadsPerCTA+tid)*m.shape.CTAs + cta
}

func storeValue(gtid, seq int) uint32 { return uint32(gtid)<<8 | uint32(seq) }

// atomicOperand makes each atomic depend on the lane's last load, so
// the atomic totals also check that loads returned the right data.
func atomicOperand(loaded uint32) uint32 { return 1 + loaded&3 }

func streamValue(i int) uint32 { return uint32(i)*2654435761 + 1 }

func wordAt(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i*mem.WordBytes) }

// instance builds the kernels and verifier over the public ISA.
func (m *mixInstance) instance() *workload.Instance {
	sh := m.shape
	progs := make([][]*gpu.Instr, len(m.ops))
	for gw, ops := range m.ops {
		cta := gw / sh.WarpsPerCTA
		seq := 0
		instrs := make([]*gpu.Instr, 0, len(ops))
		for _, op := range ops {
			r := op.r
			switch op.kind {
			case mixLoad:
				instrs = append(instrs, gpu.Load(0, func(t *gpu.Thread) (mem.Addr, bool) {
					return wordAt(mixReadBase, m.readIndex(r, t.Lane)), true
				}))
			case mixLoadOwn:
				instrs = append(instrs, gpu.Load(2, func(t *gpu.Thread) (mem.Addr, bool) {
					return wordAt(mixOwnBase, m.ownIndex(cta, t.TIDInCTA, r)), true
				}))
			case mixStore:
				seq++
				k := seq
				instrs = append(instrs, gpu.Store(func(t *gpu.Thread) (mem.Addr, bool) {
					return wordAt(mixOwnBase, m.ownIndex(cta, t.TIDInCTA, r)), true
				}, func(t *gpu.Thread) uint32 { return storeValue(t.GTID, k) }))
			case mixAtomic:
				instrs = append(instrs, gpu.Atomic(mem.AtomAdd, 1, func(t *gpu.Thread) (mem.Addr, bool) {
					return wordAt(mixHotBase, m.hotIndex(r, t.Lane)), true
				}, func(t *gpu.Thread) uint32 { return atomicOperand(t.Regs[0]) }, 0))
			case mixFence:
				instrs = append(instrs, gpu.Fence())
			}
		}
		progs[gw] = instrs
	}
	kernels := []*gpu.Kernel{{
		Name: "MIX", CTAs: sh.CTAs, WarpsPerCTA: sh.WarpsPerCTA, Regs: 3,
		NeedsCoherence: true,
		Init: func(store *mem.Store) {
			for i, v := range m.want.read {
				store.WriteWord(wordAt(mixReadBase, i), v)
			}
		},
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			return gpu.Seq(progs[w.CTA.ID*sh.WarpsPerCTA+w.InCTA]...)
		},
	}}
	if sh.StreamWords > 0 {
		threads := sh.CTAs * sh.WarpsPerCTA * gpu.WarpWidth
		iters := (sh.StreamWords + threads - 1) / threads
		kernels = append(kernels, &gpu.Kernel{
			Name: "MIX-stream", CTAs: sh.CTAs, WarpsPerCTA: sh.WarpsPerCTA, Regs: 1,
			ProgramFor: func(w *gpu.Warp) gpu.Program {
				return &gpu.LoopProgram{Iters: iters, Body: func(i int) []*gpu.Instr {
					return []*gpu.Instr{gpu.Store(func(t *gpu.Thread) (mem.Addr, bool) {
						j := i*threads + t.GTID
						return wordAt(mixStreamBase, j), j < sh.StreamWords
					}, func(t *gpu.Thread) uint32 { return streamValue(i*threads + t.GTID) })}
				}}
			},
		})
	}
	return &workload.Instance{Kernels: kernels, Verify: m.verify}
}

// verify compares the final architected memory with the generator's
// image: the last store to every owned word, exact atomic totals, an
// untouched read set, and the streamed output.
func (m *mixInstance) verify(read func(mem.Addr) uint32) error {
	regions := []struct {
		name string
		base mem.Addr
		want []uint32
	}{
		{"read set", mixReadBase, m.want.read},
		{"owned words", mixOwnBase, m.want.own},
		{"hot set", mixHotBase, m.want.hot},
		{"stream", mixStreamBase, m.want.stream},
	}
	for _, rg := range regions {
		for i, want := range rg.want {
			if got := read(wordAt(rg.base, i)); got != want {
				return fmt.Errorf("write_mix %s[%d]: got %d, want %d", rg.name, i, got, want)
			}
		}
	}
	return nil
}
