package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// streamShape sizes one l2_stream instance: the four STREAM kernels
// (copy c=a, scale b=k*c, add c=a+b, triad a=b+k*c) over three arrays of
// Words words, every thread striding the arrays by the grid's width so
// that each warp access covers whole blocks.
type streamShape struct {
	CTAs, WarpsPerCTA int
	Words             int // per array
}

// Array bases in the simulated address space, one array apart at the
// largest shape, so the three arrays map alike onto L2 sets.
const (
	streamABase mem.Addr = 0x5000_0000
	streamBBase mem.Addr = 0x5100_0000
	streamCBase mem.Addr = 0x5200_0000
)

// streamInstance is one generated STREAM instance: the initial array a,
// the scale factor, and the final image of all three arrays.
type streamInstance struct {
	shape   streamShape
	k       uint32
	a0      []uint32
	a, b, c []uint32
}

// newStream generates an instance from seed: a's initial values and an
// odd scale factor. The kernels' uint32 arithmetic wraps exactly as the
// expected image's does.
func newStream(shape streamShape, seed uint64) *streamInstance {
	r := rand.New(rand.NewPCG(seed, 0))
	s := &streamInstance{shape: shape, k: uint32(r.IntN(1<<15))*2 + 3}
	n := shape.Words
	s.a0 = make([]uint32, n)
	s.a, s.b, s.c = make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := range s.a0 {
		s.a0[i] = r.Uint32()
		c := s.a0[i]                 // copy
		s.b[i] = s.k * c             // scale
		s.c[i] = s.a0[i] + s.b[i]    // add
		s.a[i] = s.b[i] + s.k*s.c[i] // triad
	}
	return s
}

// instance builds the four kernels and the verifier over the public ISA.
func (s *streamInstance) instance() *workload.Instance {
	sh, k := s.shape, s.k
	threads := sh.CTAs * sh.WarpsPerCTA * gpu.WarpWidth
	iters := (sh.Words + threads - 1) / threads
	at := func(base mem.Addr, i int) func(t *gpu.Thread) (mem.Addr, bool) {
		return func(t *gpu.Thread) (mem.Addr, bool) {
			j := i*threads + t.GTID
			return wordAt(base, j), j < sh.Words
		}
	}
	kernel := func(name string, body func(i int) []*gpu.Instr) *gpu.Kernel {
		return &gpu.Kernel{
			Name: name, CTAs: sh.CTAs, WarpsPerCTA: sh.WarpsPerCTA, Regs: 2,
			ProgramFor: func(w *gpu.Warp) gpu.Program {
				return &gpu.LoopProgram{Iters: iters, Body: body}
			},
		}
	}
	r0 := func(t *gpu.Thread) uint32 { return t.Regs[0] }
	kernels := []*gpu.Kernel{
		kernel("STREAM-copy", func(i int) []*gpu.Instr {
			return []*gpu.Instr{gpu.Load(0, at(streamABase, i)), gpu.Store(at(streamCBase, i), r0, 0)}
		}),
		kernel("STREAM-scale", func(i int) []*gpu.Instr {
			return []*gpu.Instr{gpu.Load(0, at(streamCBase, i)),
				gpu.Store(at(streamBBase, i), func(t *gpu.Thread) uint32 { return k * t.Regs[0] }, 0)}
		}),
		kernel("STREAM-add", func(i int) []*gpu.Instr {
			return []*gpu.Instr{gpu.Load(0, at(streamABase, i)), gpu.Load(1, at(streamBBase, i)),
				gpu.Store(at(streamCBase, i), func(t *gpu.Thread) uint32 { return t.Regs[0] + t.Regs[1] }, 0, 1)}
		}),
		kernel("STREAM-triad", func(i int) []*gpu.Instr {
			return []*gpu.Instr{gpu.Load(0, at(streamBBase, i)), gpu.Load(1, at(streamCBase, i)),
				gpu.Store(at(streamABase, i), func(t *gpu.Thread) uint32 { return t.Regs[0] + k*t.Regs[1] }, 0, 1)}
		}),
	}
	kernels[0].Init = func(store *mem.Store) {
		for i, v := range s.a0 {
			store.WriteWord(wordAt(streamABase, i), v)
		}
	}
	return &workload.Instance{Kernels: kernels, Verify: s.verify}
}

// verify compares the three arrays with the generator's image.
func (s *streamInstance) verify(read func(mem.Addr) uint32) error {
	for _, arr := range []struct {
		name string
		base mem.Addr
		want []uint32
	}{{"a", streamABase, s.a}, {"b", streamBBase, s.b}, {"c", streamCBase, s.c}} {
		for i, want := range arr.want {
			if got := read(wordAt(arr.base, i)); got != want {
				return fmt.Errorf("STREAM %s[%d]: got %d, want %d", arr.name, i, got, want)
			}
		}
	}
	return nil
}
