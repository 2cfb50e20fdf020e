package sim

import (
	"runtime"

	"github.com/gtsc-sim/gtsc/internal/memsys"
)

// EngineStats counts what the cycle ENGINE did, as opposed to what the
// simulated machine did: how many cycles were actually executed vs
// fast-forwarded over provably quiet windows, and how the relaxed
// engine's domains ran. These are scheduling observability counters —
// they deliberately live outside stats.Run, whose exact rendering is
// pinned by the golden fingerprints, and outside the state digest,
// because the same simulation reaches the same machine state however
// the engine schedules it.
type EngineStats struct {
	// RunCycles / DrainCycles count cycles the engine executed with a
	// real tick; RunSkipped / DrainSkipped count cycles jumped over
	// because every component was provably quiet. Executed + skipped =
	// simulated cycles.
	RunCycles    uint64
	RunSkipped   uint64
	DrainCycles  uint64
	DrainSkipped uint64

	// SkipWindows counts fast-forward events (each covers >= 1 cycle).
	SkipWindows uint64

	// Relaxed counts what the bounded-slack engine did; all zero unless
	// a phase ran relaxed (Config.SlackCycles > 0 and preconditions
	// held).
	Relaxed RelaxedStats

	// EventCycles counts executed cycles dispatched by the
	// scheduled-wake event engine (RunCycles+DrainCycles; relaxed
	// phases count their work in Relaxed instead).
	EventCycles uint64
	// SMTicks counts individual SM tick dispatches under the event
	// engine. Sleeping SMs are not ticked, so on stall-heavy workloads
	// this is far below EventCycles * numSMs.
	SMTicks uint64
	// SMSleepCycles counts SM-cycles bulk-applied lazily while an SM
	// slept through executed machine cycles (the per-SM analogue of
	// RunSkipped, which only counts whole-machine skips).
	SMSleepCycles uint64
	// SMWakes counts sleep -> awake transitions (including the forced
	// flushes at phase boundaries and pause points).
	SMWakes uint64

	// Comp breaks the hierarchy side of executed cycles down per
	// component class: for the NoC, DRAM partitions, L2 banks, and L1s,
	// how many per-cycle Ticks were dispatched vs slept through (the
	// hierarchy analogue of SMTicks/SMSleepCycles). Relaxed phases
	// count the shared side's replay at each epoch barrier here too;
	// their L1 ticks count in Relaxed.SMDomainCycles instead.
	Comp memsys.DispatchStats
}

// RelaxedStats counts the relaxed-synchronization engine's work (see
// Config.SlackCycles and sim/relaxed.go).
type RelaxedStats struct {
	// SlackCycles is the slack bound of the most recent relaxed phase.
	SlackCycles uint64
	// Epochs counts epoch barriers executed (grid barriers and those
	// pulled in to a response's arrival or clamped to the budget).
	Epochs uint64
	// SMDomainCycles / SMDomainSkipped count SM-domain cycles executed
	// vs bulk-applied by intra-epoch quiescence skipping, summed over
	// all SM domains. The shared side's replay counts in
	// EngineStats.Comp.
	SMDomainCycles  uint64
	SMDomainSkipped uint64
	// ExchangedMsgs counts SM-domain NoC injections replayed at epoch
	// barriers; HeldMsgs counts the subset that met a full port on
	// their tagged cycle and were deferred (the one relaxed-mode timing
	// perturbation beyond barrier-crossing delivery). Banks send
	// straight into the NoC and count in neither.
	ExchangedMsgs uint64
	HeldMsgs      uint64
}

// Dispatches is the total number of event dispatches the event engine
// performed: one hierarchy dispatch per executed event cycle plus one
// per SM tick.
func (e *EngineStats) Dispatches() uint64 { return e.EventCycles + e.SMTicks }

// Mode names the engine that actually dispatched cycles: "relaxed" if
// any phase ran bounded-slack epochs, "event" otherwise. This is what
// the CLIs' `engine:` line reports — the EFFECTIVE engine (fault
// injection disengages relaxed sync), not the requested one.
func (e *EngineStats) Mode() string {
	if e.Relaxed.Epochs > 0 {
		return "relaxed"
	}
	return "event"
}

// MeanSkipWidth is the average number of cycles a machine-level
// fast-forward jumped over (0 when no window was skipped).
func (e *EngineStats) MeanSkipWidth() float64 {
	if e.SkipWindows == 0 {
		return 0
	}
	return float64(e.SkippedCycles()) / float64(e.SkipWindows)
}

// SkippedCycles is the total number of simulated cycles that were
// never executed: the machine's clock jumped over them because every
// component was provably quiescent.
func (e *EngineStats) SkippedCycles() uint64 { return e.RunSkipped + e.DrainSkipped }

// Engine returns the engine's scheduling counters, accumulated across
// every kernel this simulator has run.
func (s *Simulator) Engine() *EngineStats { return &s.eng }

// effectiveWorkers resolves Config.SimWorkers to the number of
// goroutines the relaxed engine runs SM domains on. The request is
// clamped to GOMAXPROCS — workers beyond the schedulable CPUs cannot
// run at once, so they only add a wake-up and a hand-off to every
// epoch — and to one worker per SM, beyond which extra workers can
// never have work. Results are identical at any setting, so the clamp
// is pure scheduling.
func (s *Simulator) effectiveWorkers() int {
	w := s.Cfg.SimWorkers
	if w < 1 {
		return 1
	}
	if mp := runtime.GOMAXPROCS(0); w > mp {
		w = mp
	}
	if n := len(s.SMs); w > n {
		w = n
	}
	return w
}
