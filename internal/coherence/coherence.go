// Package coherence defines the contract every coherence protocol in
// this repository implements: a per-SM L1 controller and a per-bank L2
// controller, connected by the NoC, plus the request/completion types
// the GPU core's load-store unit uses to talk to the L1.
//
// Four protocol families implement these interfaces:
//
//   - internal/core:  G-TSC, the paper's contribution (timestamp ordering)
//   - internal/tc:    Temporal Coherence (TC-Strong and TC-Weak leases)
//   - internal/dir:   a MESI full-map directory (invalidation-based)
//   - internal/nocoh: the no-L1 baseline (BL) and the non-coherent L1
//
// They share one controller chassis, so everything that is not a
// coherence decision is one code path for all of them: every L1 embeds
// a Port (request IDs and bank interleaving, the backpressured output
// queue, the message pool, the MSHR, the ack table, load completion,
// the clock, the observer and the first-failure latch), and every L2
// bank embeds a Bank, generic over its line metadata (the tag array,
// the input and output queues, the pool its DRAM partition shares, the
// miss table, keyed by block in a mem.Table, with its sorted
// stalled-fill retry list, the L2 atomic and store observation).
// L1Geometry and BankGeometry size them.
//
// The GPU core is protocol-agnostic: it presents coalesced accesses and
// receives completions; consistency (SC vs RC) is enforced above this
// interface in the SM, except for TC-Weak's GWCT which rides back on
// the completion.
package coherence

import (
	"io"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// Request is one coalesced memory access presented by an SM's LDST
// unit to its L1 controller.
type Request struct {
	Block mem.BlockAddr
	Store bool
	// Atomic marks a read-modify-write performed at the L2 (global
	// atomic); Atom gives the operation. Data carries the combined
	// per-word operands; the completion returns the pre-update values.
	Atomic bool
	Atom   mem.AtomicOp
	Mask   mem.WordMask // words touched by the access
	Data   *mem.Block   // store/atomic payload (masked words valid); nil for loads
	Warp   int          // issuing warp index within the SM

	// Done is invoked exactly once when the access completes. Loads
	// receive the block contents; stores receive nil data. It must not
	// be nil.
	Done func(c Completion)
}

// Completion reports the result of an access back to the LDST unit.
type Completion struct {
	// Data is the loaded block (nil for stores). It is valid only for
	// the duration of the Done callback: controllers recycle the block
	// after Done returns, so a callback that needs the contents later
	// must copy the words it cares about.
	Data *mem.Block
	// TS is the logical timestamp the operation was performed at
	// (G-TSC: load ts or assigned store wts). Zero for protocols
	// without timestamps.
	TS uint64
	// GWCT is TC-Weak's global write completion time for stores; a
	// fence must stall the warp until the global clock passes the
	// maximum GWCT of its prior stores. Zero elsewhere.
	GWCT uint64
}

// AccessResult is the immediate outcome of presenting a Request.
type AccessResult uint8

// Access outcomes.
const (
	// Hit: the access completed synchronously; Done was already called.
	Hit AccessResult = iota
	// Pending: the access was accepted and Done will be called later.
	Pending
	// Reject: the controller is out of resources (MSHR full, port
	// busy); the LDST unit must retry the same access next cycle.
	Reject
)

// L1 is a per-SM private cache controller.
type L1 interface {
	// Access presents one coalesced access. See AccessResult.
	Access(req *Request) AccessResult
	// Deliver hands the controller a message that arrived from the NoC.
	// The controller owns msg from then on and frees it to its pool
	// once consumed (see mem.Pool); the caller must not touch it again.
	Deliver(msg *mem.Msg)
	// Tick advances internal state one cycle (retries, timeouts).
	Tick(now uint64)
	// SyncClock advances the controller's local clock to now without
	// performing any work — exactly the effect Tick(now) has on a
	// quiescent controller. The local clock feeds decisions on the
	// Access and Deliver paths even while the controller is otherwise
	// inert: TC's lease-validity check compares expiry against it on
	// every SM access, fill handlers compare in-flight lease timestamps
	// against it on arrival, and completions stamp it into reply
	// messages. So while the per-component dispatcher skips a
	// controller's Tick, the hierarchy calls SyncClock just before
	// anything reads that clock, with the value the serial tick order
	// would show there: the previous cycle ahead of a delivery or DRAM
	// fill, the current cycle ahead of the SM's accesses, and the
	// current cycle on every controller when an engine phase exits. A
	// controller with no clock implements this as a no-op.
	SyncClock(now uint64)
	// Flush invalidates the whole cache, e.g. at a kernel boundary.
	// Outstanding misses are allowed to complete normally.
	Flush()
	// Pending reports the number of outstanding accesses not yet
	// completed (the simulator drains these before ending a kernel).
	Pending() int
	// Err reports the first protocol violation the controller hit, as
	// a *diag.ProtocolError, or nil. A failed controller drops further
	// input; the simulator aborts the run when Err becomes non-nil.
	Err() error
	// DumpState snapshots the controller's occupancy for diagnostics.
	DumpState() diag.CacheState
	// DigestState writes a canonical, process-independent rendering of
	// the controller's complete microarchitectural state (tag arrays
	// with protocol metadata, MSHRs, pending-transaction tables,
	// backpressured queues). The rendering must contain no pointer
	// values, func values, or unordered map iterations, so equal
	// digests produced in different processes imply equal machine
	// state. Checkpoint restore hashes it to verify that deterministic
	// replay reproduced the suspended machine.
	DigestState(w io.Writer)
	// Stats exposes the controller's counters.
	Stats() *stats.L1Stats
	// Quiescent reports that Tick would be a pure no-op at any future
	// cycle until a new message or access arrives: no queued output, no
	// retry loops, no per-cycle counter updates. The cycle-skipping
	// engine only fast-forwards the clock when every component is
	// quiescent, so Quiescent must never return true while the
	// controller still mutates state (or stats) on its own clock.
	Quiescent() bool
}

// L2 is a shared cache bank controller.
type L2 interface {
	// Deliver hands the bank a request that arrived from the NoC. As
	// with L1.Deliver, the bank owns msg from then on: it may park it
	// behind a miss or transaction, and frees it after its last use.
	Deliver(msg *mem.Msg)
	// DRAMFill hands the bank a completed memory read, under the same
	// ownership rule.
	DRAMFill(msg *mem.Msg)
	// Pool is the bank's message pool. The memory system shares it with
	// the bank's DRAM partition, so the L2<->DRAM loop recycles too.
	Pool() *mem.Pool
	// Tick advances internal state one cycle (TC write stalls,
	// replayed fills, overflow resets).
	Tick(now uint64)
	// SyncClock advances the bank's local clock to now without
	// performing any work (see L1.SyncClock), except that a bank
	// asleep until a timed Wake credits the per-cycle stall counters
	// its skipped ticks would have advanced: TC-Strong adds one
	// WriteStalls cycle per blocked write for every cycle slept.
	SyncClock(now uint64)
	// Pending reports in-flight work (stalled writes, DRAM waits).
	Pending() int
	// Peek returns the bank's current copy of a block, if cached —
	// a zero-cost debug/verification hook, not a protocol action. The
	// block is the bank's live line: callers only read it, and only
	// before the bank runs again.
	Peek(b mem.BlockAddr) (*mem.Block, bool)
	// Err reports the first protocol violation the bank hit, as a
	// *diag.ProtocolError, or nil.
	Err() error
	// DumpState snapshots the bank's occupancy for diagnostics.
	DumpState() diag.CacheState
	// DigestState writes the bank's canonical state rendering (see
	// L1.DigestState).
	DigestState(w io.Writer)
	// Stats exposes the bank's counters.
	Stats() *stats.L2Stats
	// Quiescent reports that Tick would be a pure no-op until new input
	// arrives (see L1.Quiescent). Banks with time-based retry loops
	// (TC lease-expiry unblocking, stalled fill replays) must report
	// non-quiescent while any such loop is armed. The event engine asks
	// Wake instead, which can also name the cycle such a loop next
	// acts; the model checker steps banks on Quiescent.
	Quiescent() bool
	// Wake reports when, after cycle now, the bank next needs a tick if
	// no input arrives: sched.Hot while it works every cycle (queued
	// input or output, stalled fills), sched.Never while it is
	// Quiescent, or a cycle after now before which every tick would
	// only advance the clock and per-cycle stall counters — a TC-Strong
	// bank whose only work is waiting out leases wakes at the earliest
	// blocked expiry. The event engine registers this on the bank's
	// agenda slot; input arriving earlier marks the bank Hot.
	Wake(now uint64) uint64
	// Drained reports that no in-flight work remains at all — the O(1)
	// equivalent of Pending() == 0, used by the drain loop every cycle
	// where the full Pending scan would dominate short kernels.
	Drained() bool
}

// Sender abstracts the transport a controller injects messages into:
// TrySend attempts to inject msg and returns false if the port's
// injection queue is full this cycle and the caller must retry. The
// memsys package wires L1 senders to the NoC's SM ports, L2 senders to
// bank ports and the DRAM channel. A successful TrySend hands msg to
// the transport (see mem.Pool for the ownership discipline).
type Sender = mem.Sender

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(msg *mem.Msg) bool

// TrySend implements Sender.
func (f SenderFunc) TrySend(msg *mem.Msg) bool { return f(msg) }

// LeaseHolder is implemented by controllers whose lines carry
// timestamp leases: G-TSC [wts, rts] intervals, or TC [0, expiry]
// physical-time leases reported as (0, expiry). The model checker
// walks them at every explored state to check lease containment
// invariants (wts <= rts at the holder; an L1 lease contained in the
// backing L2 state).
type LeaseHolder interface {
	ForEachLease(fn func(b mem.BlockAddr, wts, rts uint64))
}

// StateHolder is implemented by controllers with named per-line
// protocol states (the directory protocol's MESI letters). The model
// checker walks them to check the single-writer/multiple-reader
// invariant across private caches.
type StateHolder interface {
	ForEachLineState(fn func(b mem.BlockAddr, state string))
}

// TimeSensitive is implemented by controllers whose behavior can
// change with the passage of physical time alone (TC lease expiry:
// L1 hits die, blocked TC-Strong writes unblock). NextTimeEvent
// reports the earliest cycle after now at which such a change can
// occur, or ok=false if none is armed. The model checker uses it to
// advance its logical clock in semantic jumps instead of enumerating
// empty cycles.
type TimeSensitive interface {
	NextTimeEvent(now uint64) (at uint64, ok bool)
}
