// Package memsys assembles the simulated memory hierarchy for a chosen
// coherence protocol: per-SM L1 controllers, the crossbar NoC, the
// banked shared L2, and one DRAM partition per bank, all over a single
// functional backing store.
package memsys

import (
	"fmt"
	"sync/atomic"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/core"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/dir"
	"github.com/gtsc-sim/gtsc/internal/dram"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/noc"
	"github.com/gtsc-sim/gtsc/internal/nocoh"
	"github.com/gtsc-sim/gtsc/internal/sched"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/tc"
)

// Protocol selects the coherence configuration of a run.
type Protocol uint8

// The four configurations the paper evaluates.
const (
	// GTSC is the paper's contribution (internal/core).
	GTSC Protocol = iota
	// TC is Temporal Coherence; the Weak flag in the TC config picks
	// the strong/weak variant (the evaluation pairs TC-Weak with RC
	// and TC-Strong with SC).
	TC
	// BL disables the L1 entirely — the normalization baseline.
	BL
	// L1NC is a non-coherent L1 (Baseline-w/L1, Fig 12 right cluster).
	L1NC
	// DIR is a conventional invalidation-based full-map directory
	// protocol (MESI-style) — the class §II-C argues against,
	// implemented so the argument can be measured.
	DIR
)

// String names the protocol as the paper's figures do.
func (p Protocol) String() string {
	switch p {
	case GTSC:
		return "G-TSC"
	case TC:
		return "TC"
	case BL:
		return "BL"
	case L1NC:
		return "BL-w/L1"
	case DIR:
		return "MESI-dir"
	default:
		return "?"
	}
}

var protocolNames = map[string]Protocol{"gtsc": GTSC, "tc": TC, "bl": BL, "l1nc": L1NC, "dir": DIR}

// ParseProtocol resolves a protocol's command-line name: gtsc, tc, bl,
// l1nc or dir.
func ParseProtocol(name string) (Protocol, error) {
	if p, ok := protocolNames[name]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("unknown protocol %q", name)
}

// Config describes the hierarchy geometry and protocol parameters.
type Config struct {
	Protocol Protocol

	NumSMs   int // paper: 16
	NumBanks int // L2 banks = DRAM partitions (paper: 8)

	// L1: 16KB, 128B lines, 4-way -> 32 sets (paper §VI-A).
	L1Sets  int
	L1Ways  int
	L1MSHRs int
	// MaxWarps sizes the per-warp timestamp table (paper: 48).
	MaxWarps int

	// L2 per bank: 128KB, 128B lines, 8-way -> 128 sets; each bank
	// services one request per cycle.
	L2Sets int
	L2Ways int

	NoC  noc.Config
	DRAM dram.Config

	GTSC core.Config
	TC   tc.Config

	// Fault is the fault-injection plan; the zero value disables it.
	Fault fault.Config
}

// DefaultConfig returns the paper's simulated machine (§VI-A).
func DefaultConfig() Config {
	return Config{
		Protocol: GTSC,
		NumSMs:   16,
		NumBanks: 8,
		L1Sets:   32, L1Ways: 4, L1MSHRs: 32, MaxWarps: 48,
		L2Sets: 128, L2Ways: 8,
		NoC:  noc.DefaultConfig(),
		DRAM: dram.DefaultConfig(),
		GTSC: core.DefaultConfig(),
		TC:   tc.DefaultConfig(),
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.NumSMs == 0 {
		c.NumSMs = d.NumSMs
	}
	if c.NumBanks == 0 {
		c.NumBanks = d.NumBanks
	}
	if c.L1Sets == 0 {
		c.L1Sets = d.L1Sets
	}
	if c.L1Ways == 0 {
		c.L1Ways = d.L1Ways
	}
	if c.L1MSHRs == 0 {
		c.L1MSHRs = d.L1MSHRs
	}
	if c.MaxWarps == 0 {
		c.MaxWarps = d.MaxWarps
	}
	if c.L2Sets == 0 {
		c.L2Sets = d.L2Sets
	}
	if c.L2Ways == 0 {
		c.L2Ways = d.L2Ways
	}
}

// Validate reports configuration errors that would leave the hierarchy
// unable to make progress, as typed *diag.ConfigError values rather
// than panics. Only protocol-level parameters are checked; geometry
// zero-values are legal (fillDefaults completes them).
func (c Config) Validate() error {
	if c.Protocol == GTSC {
		return c.GTSC.Validate()
	}
	return nil
}

// System is the assembled memory hierarchy of one run.
type System struct {
	Cfg    Config
	L1s    []coherence.L1
	L2s    []coherence.L2
	Net    *noc.Network
	Parts  []*dram.Partition
	Store  *mem.Store
	Resets *core.ResetController // non-nil for G-TSC

	inj   *fault.Injector
	shims []*fault.DelayShim

	// Relaxed-sync state (see relaxed.go): the run observer and its
	// per-component staging shims, the SM domains' outbound epoch
	// buffers, and the per-port held queues for barrier injections that
	// met a full port. l1Obs/l2Obs are nil when no observer is attached.
	obs       coherence.Observer
	l1Obs     []*obsShim
	l2Obs     []*obsShim
	relaxL1   []*epochBuf  // SM domain i -> toL2 port i
	heldL2    [][]*mem.Msg // backpressured barrier injections, toL2 port i
	relaxToL2 relaxDir     // aggregate injection state of the SM domains

	// Wakes is the scheduled-wake agenda for the event-driven engine
	// (see wakes.go); slot layout is [net, partitions, fault shims,
	// L2s, L1s, rollover] in canonical tick order, with SM slots
	// appended by the simulator.
	Wakes *sched.Agenda

	slotNet  int
	slotPart int // first partition slot; partition i is slotPart+i
	slotShim int // first fault-shim slot; shim k is slotShim+k
	slotL2   int // first L2 slot
	slotL1   int // first L1 slot
	slotRoll int // the fault plan's forced-rollover schedule

	// Per-component dispatch state (see wakes.go). clock is the last
	// cycle handed to Tick/TickDue/SyncClocks or the relaxed exchange's
	// shared part, which the ingress hooks need to compute post-enqueue
	// wakes and receiver clocks; hotL1/hotL2 hold the controllers whose
	// slot is Hot and timedL2 the banks whose slot holds a cycle (an L1
	// slot is only ever Hot or Never); the ticked lists record which
	// components were dispatched this cycle so RefreshDue re-probes
	// exactly those.
	clock       uint64
	hotL1       sched.Set
	hotL2       sched.Set
	timedL2     sched.Set
	tickedParts []int
	tickedL2s   []int
	tickedL1s   []int

	// failed is raised by every controller's and partition's
	// first-failure latch, so Err is one load while nothing failed.
	failed atomic.Bool
}

// failLatch is the first-failure latch of every controller chassis
// (coherence.Port, coherence.Bank) and of a DRAM partition.
type failLatch interface{ SetFailFlag(*atomic.Bool) }

// New builds the hierarchy. obs may be nil.
func New(cfg Config, store *mem.Store, obs coherence.Observer) *System {
	cfg.fillDefaults()
	if cfg.Fault.TSStress {
		// Start G-TSC timestamps as close to wraparound as the config
		// permits (core.Config.fillDefaults clamps to the safe limit),
		// so the §V-D overflow reset fires within the first accesses.
		cfg.GTSC.InitTS = ^uint64(0)
		// Shorten TC leases so expiry/renewal churn is constant — but
		// never below a few worst-case NoC traversals: a lease shorter
		// than the fill latency arrives dead and the L1 livelocks.
		lat := cfg.NoC.Latency
		if lat == 0 {
			lat = noc.DefaultConfig().Latency
		}
		floor := 4 * (lat + cfg.Fault.DelayMax)
		if floor < 64 {
			floor = 64
		}
		if cfg.TC.Lease == 0 || cfg.TC.Lease > floor {
			cfg.TC.Lease = floor
		}
	}
	s := &System{Cfg: cfg, Store: store, obs: obs}
	if cfg.Fault.Enabled() {
		s.inj = fault.NewInjector(cfg.Fault)
	}
	s.Net = noc.New(cfg.NoC, cfg.NumSMs, cfg.NumBanks)

	if obs != nil {
		s.l1Obs = make([]*obsShim, cfg.NumSMs)
		s.l2Obs = make([]*obsShim, cfg.NumBanks)
	}
	s.relaxToL2.due = noc.Never
	s.relaxL1 = make([]*epochBuf, cfg.NumSMs)
	for i := range s.relaxL1 {
		s.relaxL1[i] = &epochBuf{} // live wired by each exchange
	}
	s.heldL2 = make([][]*mem.Msg, cfg.NumSMs)

	s.Parts = make([]*dram.Partition, cfg.NumBanks)
	for i := range s.Parts {
		s.Parts[i] = dram.New(cfg.DRAM, i, store)
	}

	s.L2s = make([]coherence.L2, cfg.NumBanks)
	// Banks send straight into the NoC: they tick only on the master —
	// the serial hierarchy tick, or the relaxed exchange at their true
	// cycle — so they always meet real port backpressure, and the
	// shared-stream reject shim is deterministic.
	sendToL1 := coherence.Sender(coherence.SenderFunc(s.Net.SendToL1))
	if s.inj != nil {
		sendToL1 = s.inj.WrapSender(sendToL1)
	}
	// Per-bank observer shim; nil passthrough without an observer.
	bankObs := func(i int) coherence.Observer {
		if obs == nil {
			return nil
		}
		return shimObs(obs, &s.l2Obs[i])
	}
	bankGeo := coherence.BankGeometry{Sets: cfg.L2Sets, Ways: cfg.L2Ways}
	switch cfg.Protocol {
	case GTSC:
		s.Resets = core.NewResetController()
		for i := range s.L2s {
			l2 := core.NewL2(cfg.GTSC, i, bankGeo, sendToL1, s.dramSender(i), bankObs(i))
			l2.AttachResets(s.Resets)
			s.L2s[i] = l2
		}
	case TC:
		for i := range s.L2s {
			s.L2s[i] = tc.NewL2(cfg.TC, i, bankGeo, sendToL1, s.dramSender(i), bankObs(i))
		}
	case DIR:
		for i := range s.L2s {
			s.L2s[i] = dir.NewL2(i, bankGeo, sendToL1, s.dramSender(i), bankObs(i))
		}
	case BL, L1NC:
		for i := range s.L2s {
			l2 := nocoh.NewL2Plain(i, bankGeo, sendToL1, s.dramSender(i), bankObs(i))
			// Under BL load values bind at the L2 (there is no L1).
			l2.SetObserveLoads(cfg.Protocol == BL)
			s.L2s[i] = l2
		}
	default:
		panic(fmt.Sprintf("memsys: unknown protocol %d", cfg.Protocol))
	}
	// Every controller follows the consume-and-free message ownership
	// discipline, so each bank's partition recycles through the bank's
	// pool (see mem.Pool).
	for i, l2 := range s.L2s {
		s.Parts[i].SetPool(l2.Pool())
	}

	s.L1s = make([]coherence.L1, cfg.NumSMs)
	l1Geo := coherence.L1Geometry{Sets: cfg.L1Sets, Ways: cfg.L1Ways, MSHRs: cfg.L1MSHRs, Warps: cfg.MaxWarps}
	sendToL2 := coherence.Sender(coherence.SenderFunc(s.Net.SendToL2))
	for i := range s.L1s {
		// The L1->L2 path sends from SM domains, which the relaxed
		// engine runs concurrently; its fault draw therefore comes from
		// a per-lane stream rather than a shared-stream wrapper. See
		// l1Sender.
		ls := &l1Sender{real: sendToL2, relax: s.relaxL1[i]}
		if s.inj != nil {
			ls.reject = s.inj.LaneReject(i)
		}
		send := coherence.Sender(ls)
		var l1obs coherence.Observer
		if obs != nil {
			l1obs = shimObs(obs, &s.l1Obs[i])
		}
		switch cfg.Protocol {
		case GTSC:
			s.L1s[i] = core.NewL1(cfg.GTSC, i, cfg.NumBanks, l1Geo, send, l1obs)
		case TC:
			s.L1s[i] = tc.NewL1(cfg.TC, i, cfg.NumBanks, l1Geo, send, l1obs)
		case BL:
			s.L1s[i] = nocoh.NewL1Bypass(i, cfg.NumBanks, send)
		case L1NC:
			s.L1s[i] = nocoh.NewL1Simple(i, cfg.NumBanks, l1Geo, send, l1obs)
		case DIR:
			s.L1s[i] = dir.NewL1(i, cfg.NumBanks, l1Geo, send, l1obs)
		}
	}

	for _, l1 := range s.L1s {
		l1.(failLatch).SetFailFlag(&s.failed)
	}
	for _, l2 := range s.L2s {
		l2.(failLatch).SetFailFlag(&s.failed)
	}
	for _, p := range s.Parts {
		p.SetFailFlag(&s.failed)
	}

	// Deliveries into the controllers. Each marks its receiver Hot
	// BEFORE the message lands, so a component whose tick was about to
	// be skipped this cycle is dispatched instead the moment input
	// reaches it: the NoC, the partitions and the fault shims all
	// dispatch ahead of the controllers in canonical order, so the mark
	// is always seen by this cycle's due-check. Each also brings the
	// receiver's clock to the previous cycle, which is what it reads
	// when cycle clock's transports deliver to it in serial tick order
	// (sleeping controllers are not synced every cycle, see wakes.go);
	// an SM domain's L1 keeps its own clock under relaxed sync. A DRAM
	// fill is consumed synchronously by the L2 (DRAMFill), which can
	// queue responses the bank's tick must drain this very cycle. The
	// controllers are indexed at call time, so a caller may wrap them
	// after New.
	toL2 := func(bank int, msg *mem.Msg) {
		s.markL2(bank, sched.Hot)
		s.L2s[bank].SyncClock(s.clock - 1)
		s.L2s[bank].Deliver(msg)
	}
	toL1 := func(sm int, msg *mem.Msg) {
		s.markL1(sm, true)
		if !s.relaxL1[sm].on {
			s.L1s[sm].SyncClock(s.clock - 1)
		}
		s.L1s[sm].Deliver(msg)
	}
	fillL2 := func(bank int, msg *mem.Msg) {
		s.markL2(bank, sched.Hot)
		s.L2s[bank].SyncClock(s.clock - 1)
		s.L2s[bank].DRAMFill(msg)
	}
	s.Net.DeliverL2, s.Net.DeliverL1 = toL2, toL1
	for i, p := range s.Parts {
		bank := i
		p.Deliver = func(msg *mem.Msg) { fillL2(bank, msg) }
	}

	// Interpose the fault-injection delivery shims between the
	// transports and the controllers. Messages a shim holds count
	// toward Pending, so drain checks see them, and each arrival
	// re-registers the shim's earliest release cycle on the agenda.
	if s.inj != nil && (cfg.Fault.DelayProb > 0 || cfg.Fault.Reorder) {
		s.Net.DeliverL2 = s.addShim(fault.NewDelayShim("noc-l2", s.inj, cfg.Fault.DelayProb, cfg.Fault.DelayMax,
			cfg.Fault.Reorder, toL2))
		s.Net.DeliverL1 = s.addShim(fault.NewDelayShim("noc-l1", s.inj, cfg.Fault.DelayProb, cfg.Fault.DelayMax,
			cfg.Fault.Reorder, toL1))
	}
	if s.inj != nil && cfg.Fault.DRAMSpikeProb > 0 {
		hold := s.addShim(fault.NewDelayShim("dram", s.inj, cfg.Fault.DRAMSpikeProb, cfg.Fault.DRAMSpikeMax,
			false, fillL2))
		for i, p := range s.Parts {
			bank := i
			p.Deliver = func(msg *mem.Msg) { hold(bank, msg) }
		}
	}
	s.initWakes()
	return s
}

// addShim registers a fault shim and returns its input: hold the
// message, then re-register the shim's wake (an arrival can only pull
// it earlier).
func (s *System) addShim(sh *fault.DelayShim) func(dst int, msg *mem.Msg) {
	k := len(s.shims)
	s.shims = append(s.shims, sh)
	return func(dst int, msg *mem.Msg) {
		sh.Deliver(dst, msg)
		s.wake(s.slotShim+k, sh.NextDue())
	}
}

// wake registers a slot's wake.
func (s *System) wake(slot int, at uint64) { s.Wakes.Schedule(slot, at) }

func (s *System) dramSender(bank int) coherence.Sender {
	return coherence.SenderFunc(func(msg *mem.Msg) bool {
		if !s.Parts[bank].Enqueue(msg) {
			return false
		}
		// The enqueue can pull the partition's wake earlier (an idle
		// partition was parked at Never); its tick slot for this cycle
		// has already passed, and NextEvent is always > clock, so the
		// new wake is a valid future registration.
		s.wake(s.slotPart+bank, s.Parts[bank].NextEvent(s.clock))
		return true
	})
}

// Tick advances the whole hierarchy one cycle in back-to-front order
// so responses race ahead of new requests deterministically. Fault
// shims release due messages after the transports tick, so unperturbed
// messages still deliver in their arrival cycle. The event engine
// dispatches the same order per component (TickDue); this wholesale
// tick is the reference the wake property tests step against.
func (s *System) Tick(now uint64) {
	s.clock = now
	for _, sh := range s.shims {
		sh.Sync(now)
	}
	s.Net.Tick(now)
	for _, p := range s.Parts {
		p.Tick(now)
	}
	for _, sh := range s.shims {
		sh.Release()
	}
	for _, l2 := range s.L2s {
		l2.Tick(now)
	}
	for _, l1 := range s.L1s {
		l1.Tick(now)
	}
}

// Pending reports in-flight work anywhere in the hierarchy.
func (s *System) Pending() int {
	n := s.Net.Pending()
	for _, p := range s.Parts {
		n += p.Pending()
	}
	for _, l2 := range s.L2s {
		n += l2.Pending()
	}
	for _, l1 := range s.L1s {
		n += l1.Pending()
	}
	for _, sh := range s.shims {
		n += sh.Pending()
	}
	return n + s.relaxPending()
}

// Err reports the first protocol error recorded anywhere in the
// hierarchy, or nil. Every first-failure latch also raises s.failed,
// so while it is down Err is one atomic load; once it is up, the scan
// below visits the controllers in the same order as always, so the
// same error surfaces on the same cycle.
func (s *System) Err() error {
	if !s.failed.Load() {
		return nil
	}
	for _, l1 := range s.L1s {
		if err := l1.Err(); err != nil {
			return err
		}
	}
	for _, l2 := range s.L2s {
		if err := l2.Err(); err != nil {
			return err
		}
	}
	for _, p := range s.Parts {
		if err := p.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ForceTimestampReset fires the §V-D overflow reset protocol
// immediately, as if some bank's timestamps had overflowed. It reports
// whether a reset was actually triggered (only G-TSC runs have a reset
// controller; other protocols ignore the request). The fault package's
// rollover plan uses this to exercise epoch-crossing paths mid-run at
// chosen points instead of waiting for natural overflow.
func (s *System) ForceTimestampReset() bool {
	if s.Resets == nil {
		return false
	}
	s.Resets.ForceReset()
	return true
}

// ArmRollover (re)seeds the fault plan's forced-rollover schedule for
// a kernel starting at cycle now. A no-op without an injector or a
// rollover plan — the cycle engine calls it unconditionally at every
// kernel launch.
func (s *System) ArmRollover(now uint64) {
	if s.inj != nil {
		s.inj.ArmRollover(now)
	}
}

// TickRollover fires the fault plan's forced §V-D reset when its
// schedule reaches cycle now, reporting whether one fired, and
// registers the next firing cycle on the agenda. The cycle engine
// calls it after the SM ticks of every executed run-phase cycle.
// Non-G-TSC hierarchies consume the schedule draw but reset nothing,
// so a plan's perturbation stream is protocol-independent.
func (s *System) TickRollover(now uint64) bool {
	if s.inj == nil || !s.inj.RolloverDue(now) {
		return false
	}
	s.wake(s.slotRoll, s.nextRollover())
	return s.ForceTimestampReset()
}

// nextRollover is the cycle at which the fault plan's next forced
// rollover fires, or Never when the plan has no armed schedule.
func (s *System) nextRollover() uint64 {
	if s.inj == nil || s.inj.NextRollover() == 0 {
		return sched.Never
	}
	return s.inj.NextRollover()
}

// Dump snapshots the hierarchy for failure diagnostics. The simulator
// adds per-SM warp states before attaching it to an error.
func (s *System) Dump(now uint64) *diag.StateDump {
	d := &diag.StateDump{Cycle: now}
	for _, l1 := range s.L1s {
		d.L1s = append(d.L1s, l1.DumpState())
	}
	for _, l2 := range s.L2s {
		d.L2s = append(d.L2s, l2.DumpState())
	}
	d.NoC = s.Net.DumpState()
	for _, p := range s.Parts {
		d.DRAMs = append(d.DRAMs, p.DumpState())
	}
	if s.Cfg.Fault.Enabled() {
		d.Faults = s.Cfg.Fault.String()
		for _, sh := range s.shims {
			if sh.Pending() > 0 {
				d.Faults += fmt.Sprintf(" %s-held=%d", sh.Name(), sh.Pending())
			}
		}
	}
	return d
}

// ReadWord returns the architected value of the word at addr: the
// owning L2 bank's copy when cached (dirty lines live there until
// evicted), else the backing store. Verification hook.
func (s *System) ReadWord(a mem.Addr) uint32 {
	b := a.Block()
	bank := int(uint64(b) % uint64(s.Cfg.NumBanks))
	if data, ok := s.L2s[bank].Peek(b); ok {
		return data.Words[a.WordIndex()]
	}
	return s.Store.ReadWord(a)
}

// Collect aggregates every component's counters into run.
func (s *System) Collect(run *stats.Run) {
	for _, l1 := range s.L1s {
		run.L1.Add(l1.Stats())
	}
	for _, l2 := range s.L2s {
		run.L2.Add(l2.Stats())
	}
	run.NoC.Add(s.Net.Stats())
	for _, p := range s.Parts {
		run.DRAM.Add(p.Stats())
	}
}
