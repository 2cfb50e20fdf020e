// Package diag defines the structured failure types the simulator
// reports when a run goes wrong: typed protocol errors raised by the
// coherence controllers in place of panics, a deadlock error raised by
// the forward-progress watchdog, and the machine-state dump both carry
// so a wedged or misbehaving machine can be diagnosed from its error
// alone. The package is dependency-free so every layer of the
// simulator can use it.
package diag

import (
	"fmt"
	"sort"
	"strings"
)

// ProtocolError reports a coherence-protocol invariant violation: a
// controller received a message or reached a state its state machine
// has no transition for. Controllers record the first such violation
// and stop processing; the simulator surfaces it with a state dump.
type ProtocolError struct {
	// Component names the failing controller, e.g. "gtsc-l1[3]".
	Component string
	// Event is a short machine-readable tag, e.g. "unexpected-message".
	Event string
	// Detail is the human-readable specifics.
	Detail string
	// Dump is the machine state at the time the error surfaced; it is
	// attached by the simulator, not the controller.
	Dump *StateDump
}

// Errf builds a ProtocolError. Controllers use it in place of panic.
func Errf(component, event, format string, args ...any) *ProtocolError {
	return &ProtocolError{
		Component: component,
		Event:     event,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// Error implements error with a one-line summary. The full dump is
// available via Dump.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("protocol error: %s: %s: %s", e.Component, e.Event, e.Detail)
}

// ConfigError reports a configuration the simulated machine cannot run
// correctly — e.g. a G-TSC lease too large for the timestamp width, so
// the §V-D overflow reset could never make forward progress. It is
// returned from validation paths in place of the panics they replaced.
type ConfigError struct {
	// Component names the subsystem rejecting the config, e.g. "gtsc".
	Component string
	// Param names the offending parameter(s), e.g. "Lease/TSBits".
	Param string
	// Detail is the human-readable specifics.
	Detail string
}

// ConfigErrf builds a ConfigError.
func ConfigErrf(component, param, format string, args ...any) *ConfigError {
	return &ConfigError{
		Component: component,
		Param:     param,
		Detail:    fmt.Sprintf(format, args...),
	}
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("config error: %s: %s: %s", e.Component, e.Param, e.Detail)
}

// DeadlockError reports that the machine stopped making forward
// progress: no instructions issued, no warps retired and no memory
// traffic moved for StalledFor cycles (Reason "no-forward-progress"),
// or the hard cycle budget was exhausted (Reason "max-cycles").
type DeadlockError struct {
	Kernel string
	// Phase is "run" during kernel execution or "drain" during the
	// kernel-boundary flush.
	Phase      string
	Reason     string
	Cycle      uint64
	StalledFor uint64
	Pending    int
	Dump       *StateDump
}

// Error implements error with a one-line summary.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("deadlock: kernel %q %s at cycle %d (%s; stalled %d cycles; pending=%d)",
		e.Kernel, e.Phase, e.Cycle, e.Reason, e.StalledFor, e.Pending)
}

// CanceledError reports that a run was suspended by context
// cancellation (Ctrl-C, -timeout deadline, or a session shutdown)
// rather than by a failure. The machine state behind it is intact and
// paused at the cycle it carries, so the caller can report where the
// run stopped or resume it in the same process.
type CanceledError struct {
	Kernel string
	// Phase is "run" or "drain", as for DeadlockError.
	Phase string
	// Cycle is the global clock at suspension: the machine has executed
	// exactly this many cycles since construction.
	Cycle uint64
	// KernelIndex counts the kernels that had fully completed on this
	// simulator before the canceled one.
	KernelIndex int
	// Cause is the context's cancellation cause (context.Canceled,
	// context.DeadlineExceeded, or a caller-supplied cause).
	Cause error
}

// Error implements error with a one-line summary.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("canceled: kernel %q %s at cycle %d (kernel index %d): %v",
		e.Kernel, e.Phase, e.Cycle, e.KernelIndex, e.Cause)
}

// Unwrap exposes the cancellation cause, so errors.Is(err,
// context.Canceled) works through a CanceledError.
func (e *CanceledError) Unwrap() error { return e.Cause }

// WorkerPanicError reports a panic captured inside an experiment
// worker and converted into a typed error, so one panicking run aborts
// only its own (workload, variant) cell instead of the whole process.
type WorkerPanicError struct {
	// Key identifies the run (the session cache key).
	Key string
	// Value is the recovered panic value, rendered.
	Value string
	// Stack is the goroutine stack at the panic site.
	Stack string
}

// Error implements error with a one-line summary; the stack is
// available via the Stack field.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("worker panic in %s: %s", e.Key, e.Value)
}

// StateDump is a structured snapshot of the whole machine, assembled
// when a run fails: per-SM warp states, per-controller occupancy, NoC
// queue depths and the in-flight transaction table.
type StateDump struct {
	Cycle uint64
	SMs   []SMState
	L1s   []CacheState
	L2s   []CacheState
	NoC   NoCState
	DRAMs []DRAMState
	// Faults describes the active fault-injection plan, if any.
	Faults string
}

// SMState snapshots one streaming multiprocessor.
type SMState struct {
	ID        int
	LiveWarps int
	LDSTQueue int // memory jobs waiting in the load-store unit
	Warps     []WarpState
}

// WarpState snapshots one resident, unfinished warp.
type WarpState struct {
	ID            int
	CTA           int
	AtBarrier     bool
	Dispatching   bool
	PendingAcc    int
	PendingStores int
	BusyUntil     uint64
	GWCT          uint64
}

// CacheState snapshots one cache controller's occupancy. Fields that
// do not apply to a given controller are zero.
type CacheState struct {
	Name     string
	ID       int
	Pending  int
	MSHRUsed int
	MSHRCap  int
	InQ      int // L2 input queue
	OutQ     int // backpressured output messages
	Misses   int // outstanding DRAM misses (L2)
	Blocked  int // blocked/stalled protocol transactions
	// Detail is optional controller-specific text (MSHR contents,
	// transient states), kept short.
	Detail string
}

// NoCState snapshots the interconnect.
type NoCState struct {
	InFlight int
	ToL2     []PortState
	ToL1     []PortState
	// Wire lists in-flight messages (the transaction table), capped at
	// WireCap entries; WireTotal is the uncapped count.
	Wire      []TxnState
	WireTotal int
}

// PortState is one injection port's queue depth and serialization
// state. Only busy ports are included in a dump, so ID names the port.
type PortState struct {
	ID        int
	Queue     int
	BusyUntil uint64
}

// TxnState is one in-flight NoC message.
type TxnState struct {
	Due   uint64
	Type  string
	Block string
	Src   int
	Dst   int
	ToL2  bool
}

// DRAMState snapshots one DRAM partition.
type DRAMState struct {
	ID       int
	Queue    int
	Fills    int // scheduled read completions
	Deferred int // fault-shim held fills
}

// WireCap bounds the rendered transaction table.
const WireCap = 32

// String renders the dump for terminals and test failures.
func (d *StateDump) String() string {
	if d == nil {
		return "<no state dump>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== machine state @ cycle %d ===\n", d.Cycle)
	if d.Faults != "" {
		fmt.Fprintf(&b, "fault plan: %s\n", d.Faults)
	}
	for i := range d.SMs {
		sm := &d.SMs[i]
		if sm.LiveWarps == 0 && len(sm.Warps) == 0 {
			continue
		}
		fmt.Fprintf(&b, "SM[%d]: live=%d ldst-queue=%d\n", sm.ID, sm.LiveWarps, sm.LDSTQueue)
		for j, w := range sm.Warps {
			if j >= 8 {
				fmt.Fprintf(&b, "  ... %d more warps\n", len(sm.Warps)-j)
				break
			}
			var flags []string
			if w.AtBarrier {
				flags = append(flags, "barrier")
			}
			if w.Dispatching {
				flags = append(flags, "dispatching")
			}
			if w.BusyUntil > d.Cycle {
				flags = append(flags, fmt.Sprintf("busy-until=%d", w.BusyUntil))
			}
			state := "stalled"
			if len(flags) > 0 {
				state = strings.Join(flags, ",")
			}
			fmt.Fprintf(&b, "  warp %d (cta %d): %s acc=%d stores=%d",
				w.ID, w.CTA, state, w.PendingAcc, w.PendingStores)
			if w.GWCT != 0 {
				fmt.Fprintf(&b, " gwct=%d", w.GWCT)
			}
			b.WriteByte('\n')
		}
	}
	writeCaches(&b, d.L1s)
	writeCaches(&b, d.L2s)
	b.WriteString(d.NoC.render())
	for _, p := range d.DRAMs {
		if p.Queue == 0 && p.Fills == 0 && p.Deferred == 0 {
			continue
		}
		fmt.Fprintf(&b, "DRAM[%d]: queue=%d fills=%d", p.ID, p.Queue, p.Fills)
		if p.Deferred > 0 {
			fmt.Fprintf(&b, " deferred=%d", p.Deferred)
		}
		b.WriteByte('\n')
	}
	b.WriteString("=== end state ===")
	return b.String()
}

func writeCaches(b *strings.Builder, cs []CacheState) {
	for i := range cs {
		c := &cs[i]
		if c.Pending == 0 && c.InQ == 0 && c.OutQ == 0 && c.Misses == 0 && c.Blocked == 0 && c.MSHRUsed == 0 {
			continue
		}
		fmt.Fprintf(b, "%s[%d]: pending=%d", c.Name, c.ID, c.Pending)
		if c.MSHRCap > 0 {
			fmt.Fprintf(b, " mshr=%d/%d", c.MSHRUsed, c.MSHRCap)
		}
		if c.InQ > 0 {
			fmt.Fprintf(b, " inq=%d", c.InQ)
		}
		if c.OutQ > 0 {
			fmt.Fprintf(b, " outq=%d", c.OutQ)
		}
		if c.Misses > 0 {
			fmt.Fprintf(b, " misses=%d", c.Misses)
		}
		if c.Blocked > 0 {
			fmt.Fprintf(b, " blocked=%d", c.Blocked)
		}
		b.WriteByte('\n')
		if c.Detail != "" {
			for _, line := range strings.Split(strings.TrimRight(c.Detail, "\n"), "\n") {
				fmt.Fprintf(b, "  %s\n", line)
			}
		}
	}
}

func (n *NoCState) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NoC: in-flight=%d", n.InFlight)
	var busy []string
	for _, p := range n.ToL2 {
		if p.Queue > 0 {
			busy = append(busy, fmt.Sprintf("sm%d:%d", p.ID, p.Queue))
		}
	}
	for _, p := range n.ToL1 {
		if p.Queue > 0 {
			busy = append(busy, fmt.Sprintf("bank%d:%d", p.ID, p.Queue))
		}
	}
	if len(busy) > 0 {
		fmt.Fprintf(&b, " queued[%s]", strings.Join(busy, " "))
	}
	b.WriteByte('\n')
	if len(n.Wire) > 0 {
		txns := append([]TxnState(nil), n.Wire...)
		sort.Slice(txns, func(i, j int) bool {
			if txns[i].Due != txns[j].Due {
				return txns[i].Due < txns[j].Due
			}
			return txns[i].Src < txns[j].Src
		})
		for _, t := range txns {
			dir := "->L1"
			if t.ToL2 {
				dir = "->L2"
			}
			fmt.Fprintf(&b, "  wire%s %s %s %d->%d due=%d\n", dir, t.Type, t.Block, t.Src, t.Dst, t.Due)
		}
		if n.WireTotal > len(n.Wire) {
			fmt.Fprintf(&b, "  ... %d more in flight\n", n.WireTotal-len(n.Wire))
		}
	}
	return b.String()
}
