// Package sim is the top-level cycle engine: it owns the global clock,
// ticks the GPU cores and the memory hierarchy, launches kernels,
// drains the machine between kernels, and produces a stats.Run per
// execution — the role GPGPU-Sim's top-level loop plays for the paper.
package sim

import (
	"context"
	"errors"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/energy"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// Config is the full configuration of one simulation.
type Config struct {
	Mem memsys.Config
	SM  gpu.SMConfig

	// MaxCycles aborts a run that fails to converge (hard budget);
	// default 200M. Exhaustion returns a diag.DeadlockError.
	MaxCycles uint64

	// WatchdogWindow is how many cycles the machine may go without
	// forward progress (instructions issued, warps retired, NoC or
	// DRAM traffic) before the run aborts with a diag.DeadlockError;
	// default 100k. The watchdog catches deadlocks in seconds where
	// the MaxCycles budget would grind for minutes.
	//
	// The window counts SIMULATED cycles only — never wall-clock time.
	// A run that is descheduled for seconds by the OS (worker pools
	// oversubscribed past GOMAXPROCS, -j fan-out, CI contention) makes
	// no simulated progress while parked and therefore cannot trip the
	// watchdog; only a machine that ticks without any counter moving
	// does. TestWatchdogOversubscribed pins this.
	//
	// A window of math.MaxUint64 never fires, which turns the check
	// off (gtscsim -watchdog-off); the MaxCycles budget still applies.
	WatchdogWindow uint64

	// Observer, when non-nil, receives every performed memory
	// operation (used by the invariant checkers in internal/check).
	// An observer belongs to exactly one run: it is called from the
	// simulation goroutine without locking, so concurrent simulations
	// (the experiment engine's worker pool, gtscsim -j) must each
	// attach their own — e.g. one check.Recorder per run, never a
	// shared instance.
	Observer coherence.Observer

	// SimWorkers is the number of goroutines that run SM domains
	// concurrently under relaxed synchronization (SlackCycles > 0;
	// 1 or 0 = inline). Results are identical at any worker count: each
	// domain runs against its own state and the epoch barrier merges
	// their traffic in canonical order. The engine clamps the request
	// to GOMAXPROCS and to the SM count. The exact engine ticks serially
	// and ignores it. No CLI sets it: on two CPUs two workers ran slower
	// than one (DESIGN.md §7).
	SimWorkers int

	// SlackCycles enables relaxed-synchronization (bounded-slack)
	// execution: each SM with its L1 is a domain that free-runs up to
	// SlackCycles cycles between epoch barriers, where the shared side
	// (NoC, L2 banks, DRAM) is replayed over the window and the
	// domains' NoC traffic is exchanged in canonical order. 0 (the
	// default) keeps the exact event engine. N > 0 is an opt-in fast
	// mode: final memory state, workload verification, and coherence
	// invariants are preserved exactly, but cycle counts and
	// timing-derived stats deviate boundedly (an SM observes a response
	// only at the next barrier; see DESIGN.md §7). Fault injection
	// disengages relaxed mode: its perturbation schedules are defined
	// over the exact per-cycle interleaving. EngineStats.Relaxed
	// reports what the mode did. The knob is result-affecting, so the
	// experiment journal's config hash includes it: a sweep journaled
	// under one slack replays only under that slack.
	SlackCycles uint64

	// ProfileLabels annotates the engine's hot phases with pprof
	// goroutine labels (engine_phase = sm-tick / hierarchy-tick /
	// agenda) so CPU profiles attribute time per phase without manual
	// bisection. Off by default: the labels cost a goroutine-label
	// store per phase transition on the hot loop. gtscsim switches it
	// on together with -cpuprofile. Scheduling-only: labels never feed
	// back into the simulation.
	ProfileLabels bool
}

// DefaultConfig returns the paper's machine: 16 SMs x 48 warps over a
// 16KB L1 / 8x128KB L2 hierarchy with G-TSC coherence and RC.
func DefaultConfig() Config {
	return Config{
		Mem: memsys.DefaultConfig(),
		SM:  gpu.SMConfig{Consistency: gpu.RC},
	}
}

// Ordering returns the ordering invariant a run under c must satisfy
// over its recorded operation log: timestamp order for G-TSC under
// every model, physical linearizability for BL, the directory and
// TC-Strong (TC under SC). It returns nil where only functional
// verification applies — TC-Weak permits bounded staleness, and the
// non-coherent L1 promises no ordering at all.
func (c Config) Ordering() func(ops []check.Record, limit int) []check.Violation {
	switch p := c.Mem.Protocol; {
	case p == memsys.GTSC:
		return check.CheckTimestampOrder
	case p == memsys.BL, p == memsys.DIR, p == memsys.TC && c.SM.Consistency == gpu.SC:
		return check.CheckPhysical
	}
	return nil
}

// run phases of one kernel execution.
const (
	phaseRun   = iota // main cycle loop until all warps retire
	phaseDrain        // kernel-boundary flush + hierarchy drain
)

// ctxPollMask throttles context-cancellation checks on the hot cycle
// loop: ctx.Err() is sampled every 1024 simulated cycles. Cancellation
// latency is therefore bounded in simulated cycles (microseconds of
// wall clock), and — critically — polling reads no state that feeds
// back into the simulation, so runs are bit-identical with or without
// a cancelable context.
const ctxPollMask = 1023

// runState is the engine state of one in-progress kernel execution.
// It lives on the Simulator between RunUntil/Resume calls, which is
// what makes a run pausable at an arbitrary cycle: exiting the cycle
// loop loses no machine state, and re-entering it continues exactly
// where the loop stopped.
type runState struct {
	kernel *gpu.Kernel
	phase  int
	start  uint64 // s.now when the current phase began

	// Forward-progress watchdog sampling state (simulated-cycle based).
	lastSig      uint64
	lastProgress uint64

	// run holds the assembled stats once the run phase completes; the
	// drain phase only advances the hierarchy.
	run *stats.Run
}

// Simulator executes kernels over one assembled machine.
type Simulator struct {
	Cfg   Config
	Store *mem.Store
	Sys   *memsys.System
	SMs   []*gpu.SM
	now   uint64

	cur         *runState // non-nil while a kernel is paused mid-execution
	kernelsDone int       // kernels run to completion on this simulator

	eng EngineStats   // engine scheduling counters (see engine.go)
	ev  *eventState   // scheduled-wake engine state (see event.go)
	rx  *relaxedState // relaxed-sync engine state (see relaxed.go)

	// cfgErr holds a configuration validation failure detected at New
	// time. New keeps its no-error signature (a Simulator is still
	// constructed, with clamped-safe parameters); the error surfaces
	// from the first Run/RunUntil instead of panicking mid-build.
	cfgErr error
}

// New builds a simulator. The TC variant is matched to the consistency
// model exactly as the paper pairs them: TC-Weak under RC, TC-Strong
// under SC.
func New(cfg Config) *Simulator {
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 200_000_000
	}
	if cfg.WatchdogWindow == 0 {
		cfg.WatchdogWindow = 100_000
	}
	if cfg.Mem.Protocol == memsys.TC {
		cfg.Mem.TC.Weak = cfg.SM.Consistency == gpu.RC
	}
	store := mem.NewStore()
	sys := memsys.New(cfg.Mem, store, cfg.Observer)
	s := &Simulator{Cfg: cfg, Store: store, Sys: sys, cfgErr: cfg.Mem.Validate()}
	s.SMs = make([]*gpu.SM, len(sys.L1s))
	for i, l1 := range sys.L1s {
		smCfg := cfg.SM
		smCfg.MaxWarps = cfg.Mem.MaxWarps
		s.SMs[i] = gpu.NewSM(i, smCfg, l1)
	}
	return s
}

// Now returns the current cycle.
func (s *Simulator) Now() uint64 { return s.now }

// KernelsDone returns how many kernels have run to completion.
func (s *Simulator) KernelsDone() int { return s.kernelsDone }

// Paused reports whether a kernel execution is suspended mid-flight
// (after RunUntil hit its stop cycle or a context was canceled).
func (s *Simulator) Paused() bool { return s.cur != nil }

// ReadWord returns the architected value of a global-memory word
// (L2-or-DRAM), for verifying kernel results.
func (s *Simulator) ReadWord(a mem.Addr) uint32 { return s.Sys.ReadWord(a) }

// Run executes one kernel to completion and returns its statistics.
// Multiple kernels may be run back-to-back on the same simulator; the
// paper's per-kernel L1 flush and timestamp reset happen between runs.
func (s *Simulator) Run(kernel *gpu.Kernel) (*stats.Run, error) {
	run, _, err := s.RunUntil(context.Background(), kernel, 0) // no stop cycle: never paused
	return run, err
}

// RunUntil executes kernel but pauses the machine once the global
// clock reaches stopAt (0 = never): it returns paused=true with all
// state retained, and Resume continues the same kernel. Under relaxed
// sync (SlackCycles > 0) an epoch is never cut short: the pause lands
// on the first epoch barrier at or after stopAt, at most one epoch
// later, so Now() may exceed stopAt. A pause is a pure suspension on
// either engine — the eventual stats.Run of the kernel is
// bit-identical however many times the execution is paused and
// resumed, so a paused machine can be inspected (StateDigest) and
// then finished without changing its result.
//
// Cancellation works the same way: when ctx is canceled (or its
// deadline passes) the cycle loop stops within ctxPollMask+1 simulated
// cycles (at the next epoch barrier under relaxed sync) and returns a
// *diag.CanceledError with the machine left intact and paused — the
// caller may inspect it (Now, StateDigest) or Resume() it with a fresh
// context. Polling never perturbs the simulation: a run that completes
// under a canceled-too-late context is bit-identical to one run without
// a context.
func (s *Simulator) RunUntil(ctx context.Context, kernel *gpu.Kernel, stopAt uint64) (*stats.Run, bool, error) {
	if s.cfgErr != nil {
		return nil, false, s.cfgErr
	}
	if s.cur != nil {
		return nil, false, errors.New("sim: a kernel is already in flight; use Resume")
	}
	s.beginKernel(kernel)
	return s.advance(ctx, stopAt)
}

// Resume continues a paused kernel until completion or until stopAt
// (0 = run to completion). See RunUntil.
func (s *Simulator) Resume(ctx context.Context, stopAt uint64) (*stats.Run, bool, error) {
	if s.cur == nil {
		return nil, false, errors.New("sim: no paused kernel to resume")
	}
	return s.advance(ctx, stopAt)
}

// beginKernel initializes backing store and dispatches the grid.
func (s *Simulator) beginKernel(kernel *gpu.Kernel) {
	if kernel.Init != nil {
		kernel.Init(s.Store)
	}
	disp := gpu.NewDispatcher(kernel)
	for _, sm := range s.SMs {
		sm.Launch(kernel, disp)
	}
	// Distribute the initial CTAs round-robin across SMs, as GPU
	// hardware schedulers do.
	for assigned := true; assigned; {
		assigned = false
		for _, sm := range s.SMs {
			if sm.FillOne() {
				assigned = true
			}
		}
	}
	// Re-arm the fault plan's forced-rollover schedule from this
	// kernel's start, so every kernel sees the plan afresh (§V-D resets
	// also happen naturally at kernel boundaries).
	s.Sys.ArmRollover(s.now)
	s.cur = &runState{
		kernel:       kernel,
		phase:        phaseRun,
		start:        s.now,
		lastSig:      s.progressSig(),
		lastProgress: s.now,
	}
}

// advance drives the current kernel forward. It returns the kernel's
// stats when it completes, paused=true when stopAt (or a context
// cancellation) suspended it, or an error. The order of checks inside
// each loop iteration is part of the determinism contract: a pause
// suspends the machine "after N completed cycles", and capture (a
// canceled run) and replay (RunUntil to the recorded cycle) evaluate
// the same checks at the same points, so they suspend at the identical
// machine state.
func (s *Simulator) advance(ctx context.Context, stopAt uint64) (*stats.Run, bool, error) {
	st := s.cur
	for {
		run := s.runPhaseEvent
		if st.phase == phaseRun && s.useRelaxed() {
			run = s.runPhaseRelaxed
		}
		paused, err := run(ctx, stopAt)
		// The exact engine brings sleeping controllers' clocks current
		// only when read; whatever reads them next reads s.now.
		s.Sys.SyncControllers(s.now)
		if err != nil {
			return nil, false, err
		}
		if paused {
			return nil, true, nil
		}
		if st.phase == phaseDrain {
			break
		}
		if err := s.endRunPhase(); err != nil {
			return nil, false, err
		}
	}
	s.cur = nil
	s.kernelsDone++
	return st.run, false, nil
}

// endRunPhase assembles the kernel's statistics and starts the
// kernel-boundary flush, transitioning the state machine to the drain
// phase.
func (s *Simulator) endRunPhase() error {
	st := s.cur
	run := &stats.Run{
		Kernel:      st.kernel.Name,
		Protocol:    s.Cfg.Mem.Protocol.String(),
		Consistency: s.Cfg.SM.Consistency.String(),
		Cycles:      s.now - st.start,
	}
	for _, sm := range s.SMs {
		run.SM.Add(sm.Stats())
	}
	s.Sys.Collect(run)
	energy.Default().Apply(run)

	// Kernel boundary: flush private caches and reset timestamps
	// (§V-D), as GPUs do between dependent kernels. Write-back
	// protocols (the directory baseline) emit writebacks here, so the
	// hierarchy is drained once more before the results are read.
	for _, l1 := range s.Sys.L1s {
		l1.Flush()
	}
	if err := s.Sys.Err(); err != nil {
		return s.attachDump(err)
	}
	st.run = run
	st.phase = phaseDrain
	st.start = s.now
	st.lastSig = s.progressSig()
	st.lastProgress = s.now
	return nil
}

// canceled builds the structured cancellation error. The machine stays
// paused: s.cur is retained so the caller can inspect it or Resume().
func (s *Simulator) canceled(ctx context.Context) error {
	return &diag.CanceledError{
		Kernel:      s.cur.kernel.Name,
		Phase:       s.phaseName(),
		Cycle:       s.now,
		KernelIndex: s.kernelsDone,
		Cause:       context.Cause(ctx),
	}
}

// budgetExhausted reports whether a phase that has already executed
// elapsed cycles has used up the MaxCycles budget. Both phases, on
// either engine, route their checks through here, so the budget
// semantics are identical by construction: each phase executes at most
// MaxCycles cycles, and the check fires before the cycle that would
// exceed the budget.
func (s *Simulator) budgetExhausted(elapsed uint64) bool {
	return elapsed >= s.Cfg.MaxCycles
}

// progressSig sums the machine's monotone activity counters; any
// change between samples means forward progress is being made. The
// signature is a pure function of simulated state — it deliberately
// reads no clocks, so scheduling delays cannot masquerade as (or mask)
// a deadlock.
func (s *Simulator) progressSig() uint64 {
	var sig uint64
	for _, sm := range s.SMs {
		st := sm.Stats()
		sig += st.InstrIssued + st.WarpsRetired
	}
	ns := s.Sys.Net.Stats()
	sig += ns.MsgsToL2 + ns.MsgsToL1
	for _, p := range s.Sys.Parts {
		ds := p.Stats()
		sig += ds.Reads + ds.Writes
	}
	return sig
}

// dump assembles the machine-state snapshot: the hierarchy's view plus
// per-SM warp states.
func (s *Simulator) dump() *diag.StateDump {
	d := s.Sys.Dump(s.now)
	for _, sm := range s.SMs {
		d.SMs = append(d.SMs, sm.DumpState())
	}
	return d
}

// watchdog is the forward-progress check, made at the engines'
// sampling points (every 64 cycles on the exact engine, at grid
// barriers under slack): it samples the monotone activity counters and
// returns the deadlock, with a state dump, once a whole
// WatchdogWindow passes with no change anywhere in the machine — long
// before the MaxCycles budget would expire.
func (s *Simulator) watchdog() error {
	st := s.cur
	if sig := s.progressSig(); sig != st.lastSig {
		st.lastSig = sig
		st.lastProgress = s.now
		return nil
	}
	if s.now-st.lastProgress >= s.Cfg.WatchdogWindow {
		return s.deadlock("no-forward-progress")
	}
	return nil
}

// deadlock builds the current kernel's structured no-forward-progress
// error: reason names the check that fired, and the stall runs from the
// watchdog's last sign of progress.
func (s *Simulator) deadlock(reason string) error {
	st := s.cur
	return &diag.DeadlockError{
		Kernel: st.kernel.Name, Phase: s.phaseName(), Reason: reason,
		Cycle: s.now, StalledFor: s.now - st.lastProgress, Pending: s.Sys.Pending(),
		Dump: s.dump(),
	}
}

// attachDump decorates a protocol error with the machine state.
func (s *Simulator) attachDump(err error) error {
	var pe *diag.ProtocolError
	if errors.As(err, &pe) && pe.Dump == nil {
		pe.Dump = s.dump()
	}
	return err
}

func (s *Simulator) done() bool {
	for _, sm := range s.SMs {
		if !sm.Done() {
			return false
		}
	}
	return s.Sys.Drained()
}
