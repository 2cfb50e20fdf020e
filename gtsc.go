// Package gtsc is a from-scratch reproduction of "G-TSC: Timestamp
// Based Coherence for GPUs" (Tabbakh, Qian, Annavaram — HPCA 2018): a
// cycle-approximate, execution-driven GPU simulator in pure Go, the
// G-TSC timestamp-ordering coherence protocol, the Temporal Coherence
// (TC) baseline it is evaluated against, the paper's no-L1 and
// non-coherent-L1 reference configurations, a GPUWattch-style energy
// model, twelve synthetic benchmarks mirroring the paper's suite, and
// experiment drivers that regenerate every table and figure of the
// evaluation.
//
// # Quick start
//
//	cfg := gtsc.DefaultConfig()
//	cfg.Mem.Protocol = gtsc.ProtocolGTSC
//	cfg.SM.Consistency = gtsc.RC
//	wl, _ := gtsc.WorkloadByName("CC")
//	run, err := wl.Build(1).Run(cfg)
//	if err != nil { ... }        // includes functional verification
//	fmt.Println(run)             // cycles, stalls, traffic, energy
//
// To reproduce the paper's evaluation:
//
//	session := gtsc.NewExperimentSession(gtsc.DefaultExperimentConfig())
//	session.RunAll(os.Stdout)
//
// Custom kernels are built from the small SIMT ISA in this package
// (Load/Store/Comp/ALU/Fence/Barrier) and run on any protocol; see
// examples/ for complete programs.
//
// The deeper layers remain importable for research use: the protocol
// state machines live in internal/core (G-TSC) and internal/tc (TC),
// the GPU core model in internal/gpu, and the hierarchy assembly in
// internal/memsys; this package re-exports the surface a downstream
// user needs.
package gtsc

import (
	"io"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/experiments"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// Simulation configuration and execution.
type (
	// Config is the full configuration of one simulation (machine
	// geometry, protocol, consistency model, observer).
	Config = sim.Config
	// Simulator executes kernels over one assembled GPU.
	Simulator = sim.Simulator
	// Run holds the statistics of one kernel execution.
	Run = stats.Run
	// MemConfig describes the memory hierarchy (caches, NoC, DRAM,
	// protocol parameters).
	MemConfig = memsys.Config
	// Protocol selects the coherence configuration.
	Protocol = memsys.Protocol
	// Consistency selects the memory consistency model (SC or RC).
	Consistency = gpu.Consistency
)

// Protocols evaluated by the paper.
const (
	// ProtocolGTSC is the paper's contribution: timestamp-ordering
	// coherence (Tardis adapted to GPUs).
	ProtocolGTSC = memsys.GTSC
	// ProtocolTC is Temporal Coherence (TC-Weak under RC, TC-Strong
	// under SC, as the paper pairs them).
	ProtocolTC = memsys.TC
	// ProtocolBL disables the private L1 — the normalization baseline.
	ProtocolBL = memsys.BL
	// ProtocolL1NC is a non-coherent L1 (only for the second
	// benchmark set).
	ProtocolL1NC = memsys.L1NC
	// ProtocolDIR is a conventional invalidation-based full-map
	// directory (MESI-style) — the baseline class §II-C argues
	// against, implemented so the argument is measurable.
	ProtocolDIR = memsys.DIR
)

// Consistency models.
const (
	// SC is sequential consistency (one outstanding reference/warp).
	SC = gpu.SC
	// RC is release consistency (scoreboarded loads, fences order).
	RC = gpu.RC
	// TSO is total store order — the intermediate model (extension).
	TSO = gpu.TSO
)

// Warp schedulers.
const (
	// LRR is loose round-robin (the evaluation's default).
	LRR = gpu.LRR
	// GTO is greedy-then-oldest.
	GTO = gpu.GTO
)

// Atomic operation kinds (performed at the L2; see the Atomic
// instruction constructor).
const (
	AtomAdd = mem.AtomAdd
	AtomMin = mem.AtomMin
	AtomMax = mem.AtomMax
)

// AtomicOp is a read-modify-write operation kind.
type AtomicOp = mem.AtomicOp

// DefaultConfig returns the paper's machine: 16 SMs x 48 warps, 16KB
// L1s, 8 x 128KB L2 banks, G-TSC with RC.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewSimulator builds a simulator for cfg.
func NewSimulator(cfg Config) *Simulator { return sim.New(cfg) }

// Kernel construction: the SIMT ISA and program combinators.
type (
	// Kernel describes one grid launch.
	Kernel = gpu.Kernel
	// Instr is one kernel instruction.
	Instr = gpu.Instr
	// Thread is the per-lane SIMT context visible to address/value
	// functions.
	Thread = gpu.Thread
	// Warp is the per-warp context visible to Programs.
	Warp = gpu.Warp
	// Program generates a warp's instruction stream.
	Program = gpu.Program
	// LoopProgram iterates a body a fixed number of times.
	LoopProgram = gpu.LoopProgram
	// FuncProgram adapts a closure into a Program.
	FuncProgram = gpu.FuncProgram
	// Addr is a byte address in simulated global memory.
	Addr = mem.Addr
	// BlockAddr identifies a 128-byte cache block.
	BlockAddr = mem.BlockAddr
	// Store is the functional backing memory kernels initialize.
	Store = mem.Store
)

// WarpWidth is the SIMT width (32 threads per warp).
const WarpWidth = gpu.WarpWidth

// Instruction constructors (re-exported from the GPU core model).
var (
	Load    = gpu.Load
	StoreOp = gpu.Store
	Comp    = gpu.Comp
	ALU     = gpu.ALU
	Atomic  = gpu.Atomic
	Fence   = gpu.Fence
	Barrier = gpu.Barrier
	Seq     = gpu.Seq
)

// Workloads: the twelve-benchmark suite.
type (
	// Workload is one named benchmark with a builder and verifier.
	Workload = workload.Workload
	// WorkloadInstance is a buildable run of a workload.
	WorkloadInstance = workload.Instance
)

// Workloads returns the full suite in the paper's order.
func Workloads() []*Workload { return workload.All() }

// CoherenceWorkloads returns the six benchmarks that require coherence.
func CoherenceWorkloads() []*Workload { return workload.CoherenceSet() }

// NonCoherenceWorkloads returns the six that do not.
func NonCoherenceWorkloads() []*Workload { return workload.NonCoherenceSet() }

// WorkloadByName looks a workload up by name ("BH", "CC", ...).
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// MicroWorkloads returns the microbenchmark registry (HIST, FS, BCAST,
// STRM, PING, PIPE) — protocol characterization kernels outside the
// paper's twelve-benchmark suite.
func MicroWorkloads() []*Workload { return workload.Micro() }

// MicroWorkloadByName looks a microbenchmark up by name.
func MicroWorkloadByName(name string) (*Workload, bool) { return workload.MicroByName(name) }

// Verification: protocol-invariant checking.
type (
	// Recorder logs every performed memory operation (plug into
	// Config.Observer).
	Recorder = check.Recorder
	// Violation describes one failed invariant check.
	Violation = check.Violation
	// Op is one observed memory operation.
	Op = coherence.Op
)

// NewRecorder returns an empty operation recorder.
func NewRecorder() *Recorder { return check.NewRecorder() }

// CheckTimestampOrder verifies G-TSC's timestamp-ordering invariant
// over a recorded run (§III-A of the paper).
func CheckTimestampOrder(ops []check.Record, max int) []Violation {
	return check.CheckTimestampOrder(ops, max)
}

// CheckPhysical verifies per-location linearizability in observation
// order (TC-Strong, BL).
func CheckPhysical(ops []check.Record, max int) []Violation {
	return check.CheckPhysical(ops, max)
}

// Experiments: the paper's evaluation.
type (
	// ExperimentConfig parameterizes an experiment session: the
	// workload scale, the worker count, and the Machine (a Config)
	// every run starts from.
	ExperimentConfig = experiments.Config
	// ExperimentSession runs and caches the evaluation's simulations.
	ExperimentSession = experiments.Session
)

// DefaultExperimentConfig returns the paper-scale machine at scale 2.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// NewExperimentSession builds a session for cfg.
func NewExperimentSession(cfg ExperimentConfig) *ExperimentSession {
	return experiments.NewSession(cfg)
}

// RunEvaluation runs every table and figure of the paper's evaluation
// at the given config, writing the report to w.
func RunEvaluation(cfg ExperimentConfig, w io.Writer) error {
	return experiments.NewSession(cfg).RunAll(w)
}
