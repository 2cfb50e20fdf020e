// Package model is an exhaustive small-state model checker for the
// repository's coherence protocols. It builds a micro machine — a
// handful of SMs, warps, banks, and blocks — directly from the real
// controller implementations (internal/core, internal/tc,
// internal/dir, internal/nocoh), replaces the cycle-driven NoC and
// DRAM with fully nondeterministic one-step transports, and explores
// EVERY interleaving of the resulting event system by breadth-first
// search over a canonicalized state graph.
//
// The model's transitions are the protocol's atomic events:
//
//   - issue:       a warp presents its next access to its L1
//   - deliverL2:   the head message of one sm→bank FIFO lands at the bank
//   - deliverL1:   the head message of one bank→sm FIFO lands at the L1
//   - dram:        the head request of one bank's DRAM queue performs
//   - tickL2:      one bank services one queued request (controllers
//     consume input from their inQ only on Tick)
//   - advance:     physical time jumps to the next lease-expiry event
//     (Temporal Coherence only; G-TSC is untimed)
//   - reset:       a §V-D overflow reset is forced chip-wide (G-TSC
//     only, budgeted by Config.ForcedResets — the model analogue of
//     the fault package's rollover plan)
//
// States are canonicalized with the same DigestState renderings the
// simulator's state digest uses, so the visited set deduplicates states
// reached by different histories; the per-word operation-log summary
// is folded into the digest, which makes that deduplication sound for
// the log-based invariants too (two states merge only if no future
// extension can distinguish their verdicts). Invariants are checked on
// every EDGE, before deduplication, so every distinct history is
// validated up to the point where it provably converges with an
// already-checked one.
//
// Because the real controllers cannot be copied, state restore is
// replay-based: the explorer rebuilds the machine from the
// configuration and re-applies the recorded transition sequence.
// Everything a controller does is a deterministic function of its
// delivered inputs, so replay is exact — the same property that makes
// a paused simulator resume bit-identically.
package model

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/core"
	"github.com/gtsc-sim/gtsc/internal/dir"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/nocoh"
	"github.com/gtsc-sim/gtsc/internal/tc"
)

// Protocol selects which controller family the micro machine runs.
type Protocol uint8

// Protocols the checker can drive.
const (
	GTSC Protocol = iota
	TCStrong
	DIR
	BL
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case GTSC:
		return "gtsc"
	case TCStrong:
		return "tc-strong"
	case DIR:
		return "mesi-dir"
	case BL:
		return "baseline"
	default:
		return "unknown"
	}
}

// Op is one memory operation of a model warp's program: a single-word
// load or store.
type Op struct {
	Block mem.BlockAddr
	Word  int
	Store bool
	Value uint32 // stored value; ignored for loads
}

// St and Ld build program ops.
func St(b mem.BlockAddr, word int, v uint32) Op {
	return Op{Block: b, Word: word, Store: true, Value: v}
}

// Ld builds a load op.
func Ld(b mem.BlockAddr, word int) Op { return Op{Block: b, Word: word} }

// Config describes one micro machine and its exploration budget.
type Config struct {
	Protocol Protocol
	NumSMs   int
	NumBanks int
	// Program lists each warp's in-order op sequence: Program[sm][warp].
	// Warps issue one access at a time (SC per warp), which is the
	// regime the paper's checker invariants are stated for.
	Program [][][]Op

	GTSC core.Config
	TC   tc.Config

	// ForcedResets budgets the G-TSC reset transition: at any state
	// where fewer than this many forced resets have fired, the checker
	// may fire a chip-wide §V-D reset as its next event. This is the
	// model analogue of the fault package's rollover plan and is what
	// drives epoch-crossing coverage at every possible protocol point.
	ForcedResets int

	// GateResets restricts the forced-reset transition to states where
	// the network is idle (like the time-advance transition). Un-gated
	// resets explore every reset-races-with-in-flight-message
	// interleaving but multiply the state space per budgeted reset;
	// configs that need MANY sequential resets (epoch-ring wraparound
	// coverage) set this and leave the mid-flight races to a smaller
	// un-gated config.
	GateResets bool

	// MaxStates bounds exploration (0 = defaultMaxStates). Exceeding it
	// is an error: the micro machine is meant to be exhaustively
	// explorable, so hitting the bound means the model is too big, not
	// that the protocol is fine.
	MaxStates int

	// Mutation hooks (test-only): inject a known protocol bug into the
	// real controllers so tests can prove the checker catches it.
	MutDropLeaseCheck   bool // G-TSC L1 ignores lease expiry on hits
	MutSkipBroadcast    bool // G-TSC reset applies only to origin bank
	MutAckWithoutInval  bool // DIR L1 acks invalidations without invalidating
	MutIgnoreWriteStall bool // TC-Strong L2 writes skip the lease stall
}

const (
	defaultMaxStates = 400_000

	// Micro-machine cache geometry: big enough that a 2–3 block program
	// never conflicts structurally (capacity effects are not what the
	// checker targets), small enough that digests stay cheap.
	l1Sets, l1Ways, l1MSHRs = 4, 2, 4
	l2Sets, l2Ways          = 4, 2
)

// transition kinds, in deterministic enumeration order.
const (
	kIssue     = iota // a = warp index (flattened)
	kDeliverL2        // a = sm, b = bank
	kDeliverL1        // a = bank, b = sm
	kDRAM             // a = bank
	kTickL2           // a = bank
	kAdvance          // physical-time jump (TC)
	kReset            // forced §V-D reset (G-TSC)
)

// trans is one transition choice; it is self-contained so a recorded
// path can be replayed on a freshly built machine without re-running
// the enumeration that produced it.
type trans struct {
	kind int
	a, b int
}

// warpState drives one warp's program: in-order, one outstanding
// access (the model is the "SM"; real pipeline structure is what the
// simulator tests cover).
type warpState struct {
	sm, warp int
	ops      []Op
	pc       int
	wait     bool
}

func (w *warpState) done() bool { return !w.wait && w.pc >= len(w.ops) }

// machine is one concrete state of the micro machine. It is never
// copied; Explore rebuilds and replays to branch.
type machine struct {
	cfg    *Config
	store  *mem.Store
	rec    *check.Recorder
	l1s    []coherence.L1
	l2s    []coherence.L2
	resets *core.ResetController // G-TSC only

	toL2 [][][]*mem.Msg // [sm][bank] FIFO
	toL1 [][][]*mem.Msg // [bank][sm] FIFO
	dram [][]*mem.Msg   // [bank] FIFO

	warps  []*warpState
	now    uint64
	forced int

	blocks []mem.BlockAddr // sorted program footprint, for store digests
}

// alwaysSender queues into a model FIFO and never backpressures; the
// route function picks the FIFO from the message's Dst at send time.
type alwaysSender func(msg *mem.Msg)

func (f alwaysSender) TrySend(msg *mem.Msg) bool { f(msg); return true }

// build constructs the machine in its initial state.
func build(cfg *Config) *machine {
	m := &machine{cfg: cfg, store: mem.NewStore(), rec: check.NewRecorder()}
	nSM, nBank := cfg.NumSMs, cfg.NumBanks

	m.toL2 = make([][][]*mem.Msg, nSM)
	for i := range m.toL2 {
		m.toL2[i] = make([][]*mem.Msg, nBank)
	}
	m.toL1 = make([][][]*mem.Msg, nBank)
	for i := range m.toL1 {
		m.toL1[i] = make([][]*mem.Msg, nSM)
	}
	m.dram = make([][]*mem.Msg, nBank)

	seen := map[mem.BlockAddr]bool{}
	maxWarps := 1
	for sm, warps := range cfg.Program {
		if len(warps) > maxWarps {
			maxWarps = len(warps)
		}
		for warp, ops := range warps {
			m.warps = append(m.warps, &warpState{sm: sm, warp: warp, ops: ops})
			for _, op := range ops {
				if !seen[op.Block] {
					seen[op.Block] = true
					m.blocks = append(m.blocks, op.Block)
				}
			}
		}
	}
	for i := 1; i < len(m.blocks); i++ { // insertion sort: footprint is tiny
		for j := i; j > 0 && m.blocks[j] < m.blocks[j-1]; j-- {
			m.blocks[j], m.blocks[j-1] = m.blocks[j-1], m.blocks[j]
		}
	}

	obs := m.rec
	m.l2s = make([]coherence.L2, nBank)
	m.l1s = make([]coherence.L1, nSM)
	l2NoC := func(bank int) coherence.Sender {
		return alwaysSender(func(msg *mem.Msg) { m.toL1[bank][msg.Dst] = append(m.toL1[bank][msg.Dst], msg) })
	}
	l2DRAM := func(bank int) coherence.Sender {
		return alwaysSender(func(msg *mem.Msg) { m.dram[bank] = append(m.dram[bank], msg) })
	}
	l1NoC := func(sm int) coherence.Sender {
		return alwaysSender(func(msg *mem.Msg) { m.toL2[sm][msg.Dst] = append(m.toL2[sm][msg.Dst], msg) })
	}

	l1Geo := coherence.L1Geometry{Sets: l1Sets, Ways: l1Ways, MSHRs: l1MSHRs, Warps: maxWarps}
	bankGeo := coherence.BankGeometry{Sets: l2Sets, Ways: l2Ways}
	switch cfg.Protocol {
	case GTSC:
		m.resets = core.NewResetController()
		m.resets.MutSkipBroadcast = cfg.MutSkipBroadcast
		for b := 0; b < nBank; b++ {
			l2 := core.NewL2(cfg.GTSC, b, bankGeo, l2NoC(b), l2DRAM(b), obs)
			l2.AttachResets(m.resets)
			m.l2s[b] = l2
		}
		for i := 0; i < nSM; i++ {
			l1 := core.NewL1(cfg.GTSC, i, nBank, l1Geo, l1NoC(i), obs)
			l1.MutDropLeaseCheck = cfg.MutDropLeaseCheck
			m.l1s[i] = l1
		}
	case TCStrong:
		tcfg := cfg.TC
		tcfg.Weak = false
		for b := 0; b < nBank; b++ {
			l2 := tc.NewL2(tcfg, b, bankGeo, l2NoC(b), l2DRAM(b), obs)
			l2.MutIgnoreWriteStall = cfg.MutIgnoreWriteStall
			m.l2s[b] = l2
		}
		for i := 0; i < nSM; i++ {
			m.l1s[i] = tc.NewL1(tcfg, i, nBank, l1Geo, l1NoC(i), obs)
		}
	case DIR:
		for b := 0; b < nBank; b++ {
			m.l2s[b] = dir.NewL2(b, bankGeo, l2NoC(b), l2DRAM(b), obs)
		}
		for i := 0; i < nSM; i++ {
			l1 := dir.NewL1(i, nBank, l1Geo, l1NoC(i), obs)
			l1.MutAckWithoutInval = cfg.MutAckWithoutInval
			m.l1s[i] = l1
		}
	case BL:
		for b := 0; b < nBank; b++ {
			l2 := nocoh.NewL2Plain(b, bankGeo, l2NoC(b), l2DRAM(b), obs)
			l2.SetObserveLoads(true) // no L1: load values bind at the bank
			m.l2s[b] = l2
		}
		for i := 0; i < nSM; i++ {
			m.l1s[i] = nocoh.NewL1Bypass(i, nBank, l1NoC(i))
		}
	default:
		panic(fmt.Sprintf("model: unknown protocol %d", cfg.Protocol))
	}
	return m
}

// enumerate lists every applicable transition of the current state in
// deterministic order. Enumeration is read-only.
func (m *machine) enumerate() []trans {
	var ts []trans
	for i, w := range m.warps {
		if !w.wait && w.pc < len(w.ops) {
			ts = append(ts, trans{kind: kIssue, a: i})
		}
	}
	for sm := range m.toL2 {
		for bank := range m.toL2[sm] {
			if len(m.toL2[sm][bank]) > 0 {
				ts = append(ts, trans{kind: kDeliverL2, a: sm, b: bank})
			}
		}
	}
	for bank := range m.toL1 {
		for sm := range m.toL1[bank] {
			if len(m.toL1[bank][sm]) > 0 {
				ts = append(ts, trans{kind: kDeliverL1, a: bank, b: sm})
			}
		}
	}
	for bank := range m.dram {
		if len(m.dram[bank]) > 0 {
			ts = append(ts, trans{kind: kDRAM, a: bank})
		}
	}
	for bank, l2 := range m.l2s {
		if !l2.Quiescent() {
			ts = append(ts, trans{kind: kTickL2, a: bank})
		}
	}
	if m.networkIdle() {
		if _, ok := m.nextTimeEvent(); ok {
			ts = append(ts, trans{kind: kAdvance})
		}
	}
	if m.resets != nil && m.forced < m.cfg.ForcedResets &&
		(!m.cfg.GateResets || m.networkIdle()) {
		ts = append(ts, trans{kind: kReset})
	}
	return ts
}

// networkIdle reports that no message anywhere is still waiting to be
// delivered or serviced: every model FIFO is empty and every bank has
// absorbed its queued input. The time-advance transition is gated on
// it — physical time may pass before or after any warp's access, but
// never while a message is in flight. Without the gate the model
// admits zeno behaviors (a fill perpetually expiring in flight and
// being re-requested as time outruns it), which have unbounded state
// spaces and correspond to no real machine, where NoC latency is far
// below any lease length. The simulator's fault harness documents the
// same constraint: "a lease shorter than the fill latency arrives dead
// and the L1 livelocks".
func (m *machine) networkIdle() bool {
	for sm := range m.toL2 {
		for bank := range m.toL2[sm] {
			if len(m.toL2[sm][bank]) > 0 {
				return false
			}
		}
	}
	for bank := range m.toL1 {
		for sm := range m.toL1[bank] {
			if len(m.toL1[bank][sm]) > 0 {
				return false
			}
		}
	}
	for bank := range m.dram {
		if len(m.dram[bank]) > 0 {
			return false
		}
	}
	for _, l2 := range m.l2s {
		if mp, ok := l2.(interface{ MsgPending() bool }); ok {
			if mp.MsgPending() {
				return false
			}
		} else if !l2.Quiescent() {
			return false
		}
	}
	return true
}

// nextTimeEvent returns the earliest future physical-time event of any
// time-sensitive controller.
func (m *machine) nextTimeEvent() (uint64, bool) {
	var best uint64
	ok := false
	probe := func(c any) {
		if tsens, is := c.(coherence.TimeSensitive); is {
			if at, has := tsens.NextTimeEvent(m.now); has && (!ok || at < best) {
				best, ok = at, true
			}
		}
	}
	for _, l1 := range m.l1s {
		probe(l1)
	}
	for _, l2 := range m.l2s {
		probe(l2)
	}
	return best, ok
}

// apply performs one transition and returns its human-readable label
// for counterexample traces.
func (m *machine) apply(t trans) string {
	switch t.kind {
	case kIssue:
		w := m.warps[t.a]
		op := w.ops[w.pc]
		label := fmt.Sprintf("sm%d.w%d: %s", w.sm, w.warp, opString(op))
		m.issue(w, op)
		return label
	case kDeliverL2:
		msg := m.toL2[t.a][t.b][0]
		m.toL2[t.a][t.b] = m.toL2[t.a][t.b][1:]
		label := fmt.Sprintf("net: sm%d→L2[%d] %v %v", t.a, t.b, msg.Type, msg.Block)
		m.l2s[t.b].Deliver(msg)
		return label
	case kDeliverL1:
		msg := m.toL1[t.a][t.b][0]
		m.toL1[t.a][t.b] = m.toL1[t.a][t.b][1:]
		label := fmt.Sprintf("net: L2[%d]→sm%d %v %v wts=%d rts=%d ep=%d",
			t.a, t.b, msg.Type, msg.Block, msg.WTS, msg.RTS, msg.Epoch)
		m.l1s[t.b].Deliver(msg)
		return label
	case kDRAM:
		msg := m.dram[t.a][0]
		m.dram[t.a] = m.dram[t.a][1:]
		label := fmt.Sprintf("dram[%d]: %v %v", t.a, msg.Type, msg.Block)
		switch msg.Type {
		case mem.DRAMRd:
			data := &mem.Block{}
			m.store.ReadBlock(msg.Block, data)
			m.l2s[t.a].DRAMFill(&mem.Msg{
				Type: mem.DRAMFill, Block: msg.Block, Src: t.a, Dst: msg.Src,
				Data: data, ReqID: msg.ReqID,
			})
		case mem.DRAMWr:
			m.store.WriteBlock(msg.Block, msg.Data, msg.Mask)
		}
		return label
	case kTickL2:
		m.l2s[t.a].Tick(m.now)
		return fmt.Sprintf("L2[%d]: service", t.a)
	case kAdvance:
		at, _ := m.nextTimeEvent()
		m.now = at
		for _, l1 := range m.l1s {
			l1.SyncClock(at)
		}
		for _, l2 := range m.l2s {
			l2.SyncClock(at)
		}
		return fmt.Sprintf("time: advance to %d", at)
	case kReset:
		m.forced++
		m.resets.ForceReset()
		return fmt.Sprintf("reset: forced §V-D rollover #%d (epoch→%d)", m.forced, m.resets.Epoch())
	default:
		panic("model: unknown transition kind")
	}
}

func (m *machine) issue(w *warpState, op Op) {
	req := &coherence.Request{
		Block: op.Block,
		Mask:  mem.WordMask(0).Set(op.Word),
		Warp:  w.warp,
		Done: func(coherence.Completion) {
			w.wait = false
			w.pc++
		},
	}
	if op.Store {
		req.Store = true
		data := &mem.Block{}
		data.Words[op.Word] = op.Value
		req.Data = data
	}
	switch m.l1s[w.sm].Access(req) {
	case coherence.Hit:
		// Done already ran synchronously.
	case coherence.Pending:
		w.wait = true
	case coherence.Reject:
		// No state change; the explorer prunes it as a self-loop.
	}
}

func opString(op Op) string {
	if op.Store {
		return fmt.Sprintf("ST %v[%d]=%d", op.Block, op.Word, op.Value)
	}
	return fmt.Sprintf("LD %v[%d]", op.Block, op.Word)
}

// final reports whether every warp has retired its whole program.
func (m *machine) final() bool {
	for _, w := range m.warps {
		if !w.done() {
			return false
		}
	}
	return true
}
