// Package gpu models the execution side of the simulated GPU: SIMT
// warps running a small kernel ISA, per-SM schedulers and load-store
// units with access coalescing, CTA (thread block) dispatch, and the
// enforcement of the two memory consistency models the paper
// evaluates (sequential consistency and release consistency).
//
// Kernels are execution-driven, not trace-driven: programs compute
// addresses and values from per-thread registers, and loads feed
// registers back, so protocol timing feeds back into the access
// stream exactly as it would in GPGPU-Sim.
package gpu

import "github.com/gtsc-sim/gtsc/internal/mem"

// WarpWidth is the SIMT width (threads per warp).
const WarpWidth = 32

// Op is a kernel instruction opcode.
type Op uint8

// Kernel ISA opcodes.
const (
	// OpComp models Cycles of non-memory work (ALU/SFU latency).
	OpComp Op = iota
	// OpLoad reads one word per active lane into register Dst.
	OpLoad
	// OpStore writes one word per active lane.
	OpStore
	// OpFence orders memory: the warp stalls until all its prior
	// accesses are performed (and, under TC-Weak, until the global
	// clock passes its maximum GWCT).
	OpFence
	// OpBarrier synchronizes all warps of the CTA.
	OpBarrier
	// OpALU applies a per-lane register transform (Exec) — the
	// register arithmetic between loads and stores.
	OpALU
	// OpAtomic is a global read-modify-write (add/min/max) performed
	// at the shared L2; the pre-update value returns into Dst.
	OpAtomic
)

// Instr is one kernel instruction, executed by all active lanes of a
// warp. Address and value functions receive the per-lane thread
// context; a nil Addr for OpLoad/OpStore panics at issue.
//
// Instructions are immutable once built. Most kernels' instructions
// are also warp-invariant (only the Thread each function receives
// differs), so the kernel builds them once and every warp's Program
// hands out the same *Instr values (see Kernel.ProgramFor). Under
// relaxed sync SM domains run on concurrent goroutines, so one
// instruction is read, and its Addr, Val and Exec called, from several
// goroutines at once: the functions must depend only on their Thread
// and on values fixed before the kernel runs, and write nothing but
// the Thread's registers (Exec).
type Instr struct {
	Op     Op
	Cycles int // OpComp: busy cycles

	// Dst is the destination register of OpLoad/OpAtomic.
	Dst int
	// Atom is OpAtomic's operation kind.
	Atom mem.AtomicOp
	// Addr yields the lane's byte address; ok=false deactivates the
	// lane for this instruction (divergence).
	Addr func(t *Thread) (addr mem.Addr, ok bool)
	// Val yields the lane's store value for OpStore.
	Val func(t *Thread) uint32
	// Exec is OpALU's per-lane register transform.
	Exec func(t *Thread)
	// SrcRegs lists registers Addr/Val/Exec read; under RC the
	// scoreboard holds the instruction until in-flight loads to them
	// complete.
	SrcRegs []int
}

// Comp returns a compute instruction burning n cycles.
func Comp(n int) *Instr { return &Instr{Op: OpComp, Cycles: n} }

// Fence returns a memory fence.
func Fence() *Instr { return &Instr{Op: OpFence} }

// Barrier returns a CTA-wide barrier.
func Barrier() *Instr { return &Instr{Op: OpBarrier} }

// Load returns a load of addr(t) into dst for every active lane.
func Load(dst int, addr func(t *Thread) (mem.Addr, bool), srcRegs ...int) *Instr {
	return &Instr{Op: OpLoad, Dst: dst, Addr: addr, SrcRegs: srcRegs}
}

// Store returns a store of val(t) to addr(t) for every active lane.
func Store(addr func(t *Thread) (mem.Addr, bool), val func(t *Thread) uint32, srcRegs ...int) *Instr {
	return &Instr{Op: OpStore, Addr: addr, Val: val, SrcRegs: srcRegs}
}

// ALU returns a single-cycle per-lane register transform.
func ALU(exec func(t *Thread), srcRegs ...int) *Instr {
	return &Instr{Op: OpALU, Cycles: 1, Exec: exec, SrcRegs: srcRegs}
}

// Atomic returns a global read-modify-write: every active lane applies
// op with operand val(t) to addr(t) and receives the pre-update value
// in dst. Same-word lanes are warp-aggregated: the memory result is
// the combined update, and for AtomAdd each lane's return value
// includes the preceding active lanes' operands (hardware-equivalent
// per-lane results).
func Atomic(op mem.AtomicOp, dst int, addr func(t *Thread) (mem.Addr, bool), val func(t *Thread) uint32, srcRegs ...int) *Instr {
	return &Instr{Op: OpAtomic, Atom: op, Dst: dst, Addr: addr, Val: val, SrcRegs: srcRegs}
}

// Thread is the per-lane SIMT context.
type Thread struct {
	CTA      int // global CTA id
	Warp     int // warp index within the CTA
	Lane     int // 0..WarpWidth-1
	TIDInCTA int // thread index within the CTA
	GTID     int // global thread id across the grid
	Regs     []uint32
}

// Program generates a warp's instruction stream. Next returns the next
// instruction; ready=false means the program cannot decide yet (it
// branches on a register whose load is still in flight) and the SM
// retries next cycle. (nil, true) ends the warp.
//
// A ready=false return must be side-effect-free and a pure function of
// the warp's own architectural state (typically RegsReady), so that
// readiness can only flip when one of the warp's in-flight accesses
// completes. The quiescence machinery relies on this to treat a
// fetch-stalled warp as inert until its next completion (see
// Warp.fetchStalled); a Program that polls anything else would break
// cycle-skipping bit-identity.
//
// Programs may keep per-warp state (loop counters, traversal
// frontiers); each warp receives its own Program instance. That state
// is all a Program should own: the instructions it returns are the
// kernel's shared ones (see Instr), so Next allocates nothing.
type Program interface {
	Next(w *Warp) (instr *Instr, ready bool)
}

// Kernel describes one grid launch.
type Kernel struct {
	Name        string
	CTAs        int // number of thread blocks in the grid
	WarpsPerCTA int
	Regs        int // registers per thread
	// MaxCTAsPerSM caps resident CTAs per SM (occupancy); 0 = only
	// the warp-context limit applies.
	MaxCTAsPerSM int

	// NeedsCoherence marks kernels that communicate between CTAs
	// through global memory (the paper's first benchmark set); they
	// are only functionally correct under a coherent configuration.
	NeedsCoherence bool

	// Init populates the backing store with the kernel's input data.
	Init func(store *mem.Store)

	// ProgramFor returns the Program of one warp. The SM calls it on
	// the single-threaded CTA fill path inside Simulator.Run (under
	// relaxed sync, at the epoch barrier). A kernel builds its
	// instructions on its first call, for example behind a sync.Once,
	// which also covers a kernel run by several simulators at once,
	// and returns only a small per-warp cursor over them (see Instr).
	// Rebuilding them per warp or per loop iteration is correct but
	// allocates on every CTA dispatch; the repository's workloads
	// never do.
	ProgramFor func(w *Warp) Program
}

// seqProgram replays a fixed instruction slice.
type seqProgram struct {
	instrs []*Instr
	pc     int
}

// Seq returns a Program that executes instrs once, in order. It keeps
// instrs without copying or writing it, so the warps of a kernel can
// share one slice.
func Seq(instrs ...*Instr) Program { return &seqProgram{instrs: instrs} }

// Next implements Program.
func (p *seqProgram) Next(w *Warp) (*Instr, bool) {
	if p.pc >= len(p.instrs) {
		return nil, true
	}
	i := p.instrs[p.pc]
	p.pc++
	return i, true
}

// FuncProgram adapts a closure to the Program interface.
type FuncProgram func(w *Warp) (*Instr, bool)

// Next implements Program.
func (f FuncProgram) Next(w *Warp) (*Instr, bool) { return f(w) }

// LoopProgram runs Iters iterations, asking Body for the instruction
// slice of each iteration (data-independent loop bounds).
//
// Body must be pure: a function of iter alone that returns a slice
// built before the kernel runs, such as a row of a per-iteration table
// built on the kernel's first ProgramFor call, and does not build
// instructions per call. The warps of a kernel may share one Body, and
// under relaxed sync warps on different goroutines call it at once, so
// a Body that fills a memo lazily is a data race.
type LoopProgram struct {
	Iters int
	Body  func(iter int) []*Instr

	iter int
	cur  []*Instr
	pc   int
}

// Next implements Program.
func (p *LoopProgram) Next(w *Warp) (*Instr, bool) {
	for p.pc >= len(p.cur) {
		if p.iter >= p.Iters {
			return nil, true
		}
		p.cur = p.Body(p.iter)
		p.pc = 0
		p.iter++
	}
	i := p.cur[p.pc]
	p.pc++
	return i, true
}
