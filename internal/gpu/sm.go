package gpu

import (
	"fmt"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// Consistency selects the memory consistency model the SM enforces
// (§II-B of the paper).
type Consistency uint8

// Consistency models.
const (
	// SC: sequential consistency — each warp has at most one
	// outstanding memory request and issues nothing past an
	// incomplete memory operation.
	SC Consistency = iota
	// RC: release consistency — loads are scoreboarded, stores are
	// fire-and-forget, and only fences order memory (draining the
	// warp's accesses and, under TC-Weak, waiting out its GWCT).
	RC
	// TSO: total store order, the intermediate model the paper points
	// at (§II-B). Loads retire in program order among themselves and
	// stores among themselves, but loads bypass older stores. This is
	// an extension beyond the paper's SC/RC evaluation.
	TSO
)

// String names the model.
func (c Consistency) String() string {
	switch c {
	case SC:
		return "SC"
	case TSO:
		return "TSO"
	default:
		return "RC"
	}
}

// ParseConsistency resolves a consistency model's command-line name:
// rc, sc or tso.
func ParseConsistency(name string) (Consistency, error) {
	switch name {
	case "rc":
		return RC, nil
	case "sc":
		return SC, nil
	case "tso":
		return TSO, nil
	}
	return 0, fmt.Errorf("unknown consistency %q", name)
}

// Scheduler selects the warp scheduling policy.
type Scheduler uint8

// Warp schedulers.
const (
	// LRR: loose round-robin (default; what the evaluation uses).
	LRR Scheduler = iota
	// GTO: greedy-then-oldest — stay on the last issuing warp until
	// it stalls, then fall back to the oldest ready warp. The
	// standard alternative in GPGPU-Sim; exposed for ablations.
	GTO
)

// String names the scheduler.
func (s Scheduler) String() string {
	if s == GTO {
		return "GTO"
	}
	return "LRR"
}

// ParseScheduler resolves a scheduler's command-line name: lrr or gto.
func ParseScheduler(name string) (Scheduler, error) {
	switch name {
	case "lrr":
		return LRR, nil
	case "gto":
		return GTO, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q", name)
}

// SMConfig sets per-SM pipeline parameters. An SM issues at most one
// instruction per cycle.
type SMConfig struct {
	MaxWarps    int // resident warp contexts (paper: 48)
	Consistency Consistency
	Scheduler   Scheduler
}

const (
	// maxPendingLoads bounds a warp's in-flight load accesses under RC
	// (SC is inherently 1).
	maxPendingLoads = 8
	// ldstQueueDepth is the depth of the memory-instruction queue
	// feeding the coalescer/L1, one access dispatched per cycle.
	ldstQueueDepth = 4
)

func (c *SMConfig) fillDefaults() {
	if c.MaxWarps == 0 {
		c.MaxWarps = 48
	}
}

// memJob is one memory instruction streaming its coalesced accesses
// through the LDST unit, one per cycle. It is embedded in its pooled
// accGroup; group points back so the job's retirement can release its
// reference on the group's arrays.
type memJob struct {
	warp  *Warp
	instr *Instr
	accs  []*coalesced
	next  int
	group *accGroup
}

// SM is one streaming multiprocessor: a loose-round-robin scheduler
// over resident warps, a single-issue pipeline, and an LDST unit that
// coalesces and dispatches memory accesses to the private L1.
type SM struct {
	id     int
	cfg    SMConfig
	l1     coherence.L1
	kernel *Kernel
	disp   *Dispatcher
	now    uint64

	warps        []*Warp // resident warps (live and recently finished)
	freeIDs      []int   // free warp context slots (L1 warp_ts indices)
	liveWarps    int
	residentCTAs int

	ldst       []*memJob
	rr         int
	lastIssued *Warp       // GTO greediness
	scanBuf    []*Warp     // reusable scheduler scan order (hot path)
	groupPool  []*accGroup // recycled LDST access groups (see pool.go)
	spare      []*Warp     // retired warp contexts for the next CTAs (see retire)

	// deferFills redirects CTA refills (which draw from the dispatcher
	// shared by every SM) to CommitFill, so SM domains running
	// concurrently never race on CTA assignment: the relaxed engine
	// commits fills in SM index order at epoch barriers.
	deferFills  bool
	pendingFill bool

	// completions counts memory-completion callbacks delivered to this
	// SM's warps, monotonically: the wake signal of a sleeping SM (see
	// Stirred).
	completions uint64

	// The sleep record (see quiesce.go): whether the last Tick issued,
	// and, while asleep, the probe that justified the sleep and the
	// completion count it was taken at.
	issued  bool
	asleep  bool
	probe   StallProbe
	sleptAt uint64

	stats stats.SMStats
}

// NewSM builds SM id over the given L1 controller.
func NewSM(id int, cfg SMConfig, l1 coherence.L1) *SM {
	cfg.fillDefaults()
	s := &SM{id: id, cfg: cfg, l1: l1, freeIDs: make([]int, cfg.MaxWarps)}
	for i := range s.freeIDs {
		s.freeIDs[i] = i
	}
	return s
}

// ID returns the SM index.
func (s *SM) ID() int { return s.id }

// Stats returns the SM's counters.
func (s *SM) Stats() *stats.SMStats { return &s.stats }

// L1 returns the SM's private cache controller.
func (s *SM) L1() coherence.L1 { return s.l1 }

// Launch binds the SM to a kernel and its CTA dispatcher. The
// simulator fills SMs round-robin afterwards (FillOne) so CTAs spread
// across the chip as real GPUs schedule them.
func (s *SM) Launch(kernel *Kernel, disp *Dispatcher) {
	s.kernel = kernel
	s.disp = disp
}

// FillOne pulls at most one CTA from the dispatcher, respecting warp
// contexts and the kernel's per-SM CTA occupancy limit. It reports
// whether a CTA was assigned; an assigned CTA voids the sleep record,
// whose probe did not see its warps.
func (s *SM) FillOne() bool {
	if s.kernel == nil || len(s.freeIDs) < s.kernel.WarpsPerCTA {
		return false
	}
	if limit := s.kernel.MaxCTAsPerSM; limit > 0 && s.residentCTAs >= limit {
		return false
	}
	cta := s.disp.next(s)
	if cta == nil {
		return false
	}
	s.residentCTAs++
	s.asleep = false
	for _, w := range cta.Warps {
		id := s.freeIDs[len(s.freeIDs)-1]
		s.freeIDs = s.freeIDs[:len(s.freeIDs)-1]
		w.ID = id
		s.warps = append(s.warps, w)
		s.liveWarps++
	}
	return true
}

// fill greedily refills freed contexts when a CTA retires.
func (s *SM) fill() {
	for s.FillOne() {
	}
}

// Done reports whether the SM has retired all its work: no live warps,
// no queued memory instructions, and no more CTAs to fetch.
func (s *SM) Done() bool {
	return s.liveWarps == 0 && len(s.ldst) == 0 && s.disp.exhausted()
}

// DumpState snapshots the SM's unfinished warps for failure
// diagnostics.
func (s *SM) DumpState() diag.SMState {
	st := diag.SMState{ID: s.id, LiveWarps: s.liveWarps, LDSTQueue: len(s.ldst)}
	for _, w := range s.warps {
		if w.finished {
			continue
		}
		st.Warps = append(st.Warps, diag.WarpState{
			ID:            w.ID,
			CTA:           w.CTA.ID,
			AtBarrier:     w.atBarrier,
			Dispatching:   w.dispatching,
			PendingAcc:    w.pendingAcc,
			PendingStores: w.pendingStores,
			BusyUntil:     w.busyUntil,
			GWCT:          w.gwct,
		})
	}
	return st
}

// Tick advances the SM one cycle: pump the LDST unit, then issue.
func (s *SM) Tick(now uint64) {
	s.now = now
	s.stats.Cycles++
	s.issued = false
	if s.liveWarps == 0 && len(s.ldst) == 0 {
		// Provably idle: no resident work and nothing streaming through
		// the LDST unit. pumpLDST and issue would both no-op; skip them.
		return
	}
	s.pumpLDST()
	s.issue()
}

// pumpLDST dispatches the head job's next coalesced access to the L1.
func (s *SM) pumpLDST() {
	if len(s.ldst) == 0 {
		return
	}
	job := s.ldst[0]
	acc := job.accs[job.next]
	res := s.dispatchAccess(job, acc)
	if res == coherence.Reject {
		return // retry next cycle
	}
	job.next++
	if job.next == len(job.accs) {
		job.warp.dispatching = false
		// Shift-down dequeue: the queue is bounded (ldstQueueDepth),
		// so copying the tail reuses the backing array forever where
		// re-slicing would leak capacity and re-allocate on every append.
		copy(s.ldst, s.ldst[1:])
		s.ldst = s.ldst[:len(s.ldst)-1]
		job.group.release()
	}
}

// noteCompletion records one memory completion landing on warp w. The
// monotone counter is a sleeping SM's wake signal (Stirred); clearing
// fetchStalled keeps the stall-probe contract honest: a warp's fetch
// readiness (Program.Next) may only change when one of its accesses
// completes, so fetchStalled==true always means "Next returned !ready
// and nothing has completed since" — safe to treat as still stalled
// without re-running Next.
func (s *SM) noteCompletion(w *Warp) {
	s.completions++
	w.fetchStalled = false
}

// dispatchAccess hands one coalesced access to the L1 through its
// pooled request record; the record's prebound Done callback scatters
// data and releases trackers (see reqRec.complete). A Reject leaves
// the record untouched for an identical retry next cycle.
func (s *SM) dispatchAccess(job *memJob, acc *coalesced) coherence.AccessResult {
	w, instr := job.warp, job.instr
	r := job.group.rec(job.next)
	r.w = w
	r.lanes = acc.lanes
	r.dst = instr.Dst
	r.op = instr.Op
	r.atom = instr.Atom
	req := &r.req
	*req = coherence.Request{
		Block: acc.block,
		Store: instr.Op == OpStore,
		Mask:  acc.mask,
		Warp:  w.ID,
		Done:  r.done,
	}
	if instr.Op == OpAtomic {
		req.Atomic = true
		req.Atom = instr.Atom
		// acc.data is never written after coalesce and the controllers
		// only read request payloads, so the access aliases it directly
		// instead of copying the 128-byte block per dispatch.
		req.Data = &acc.data
	} else if instr.Op == OpStore {
		req.Data = &acc.data
	}
	return s.l1.Access(req)
}

// blockReason classifies why a warp could not issue (for the Fig 13
// stall breakdown).
type blockReason uint8

const (
	notBlocked blockReason = iota
	blockedMem
	blockedBarrier
	blockedComp
	blockedFence // a fence draining the warp's accesses (a memory stall)
	blockedGWCT  // a drained fence waiting out the warp's GWCT (likewise)
)

// issue scans warps in scheduler order and issues the first ready
// instruction; if nothing issues while live warps remain, the cycle is
// a stall, classified by the strongest reason seen.
func (s *SM) issue() {
	if s.liveWarps == 0 {
		return
	}
	sawMem, sawBarrier := false, false
	for _, w := range s.scanOrder() {
		if w.finished {
			continue
		}
		ok, reason := s.tryIssue(w)
		if ok {
			s.issued = true
			s.lastIssued = w
			if s.cfg.Scheduler == LRR {
				s.advanceRR(w)
			}
			break
		}
		switch reason {
		case blockedMem:
			sawMem = true
		case blockedBarrier:
			sawBarrier = true
		}
	}
	s.reapFinished()
	if s.issued {
		s.stats.ActiveCycles++
		s.stats.InstrIssued++
		return
	}
	if s.liveWarps == 0 {
		return
	}
	if sawMem {
		s.stats.MemStallCycles++
	} else if sawBarrier {
		s.stats.BarrierStallCycles++
	}
}

// scanOrder yields warps in scheduler priority order. LRR starts
// after the last issuer; GTO tries the last issuer first and then the
// oldest resident warps (resident order approximates age: CTAs are
// appended at launch). The returned slice aliases a per-SM scratch
// buffer reused every cycle — valid only until the next call.
func (s *SM) scanOrder() []*Warp {
	n := len(s.warps)
	if n == 0 {
		return nil
	}
	out := s.scanBuf[:0]
	if s.cfg.Scheduler == GTO {
		if s.lastIssued != nil && !s.lastIssued.finished {
			out = append(out, s.lastIssued)
		}
		for _, w := range s.warps {
			if w != s.lastIssued {
				out = append(out, w)
			}
		}
		s.scanBuf = out
		return out
	}
	for i := 0; i < n; i++ {
		out = append(out, s.warps[(s.rr+i)%n])
	}
	s.scanBuf = out
	return out
}

// advanceRR moves the round-robin pointer past the warp that issued.
func (s *SM) advanceRR(issued *Warp) {
	for i, w := range s.warps {
		if w == issued {
			s.rr = (i + 1) % max(len(s.warps), 1)
			return
		}
	}
}

// fetchBlock is tryIssue's first, pre-fetch check, shared with
// Quiesce: why warp w cannot issue whatever it would fetch, or
// notBlocked.
func (s *SM) fetchBlock(w *Warp) blockReason {
	switch {
	case w.atBarrier:
		return blockedBarrier
	case s.now < w.busyUntil:
		return blockedComp
	case w.dispatching:
		return blockedMem // resumes when the LDST stream restarts
	case s.cfg.Consistency == SC && (w.pendingAcc > 0 || w.pendingStores > 0):
		// One outstanding memory request per warp (§VI-B).
		return blockedMem
	}
	return notBlocked
}

// instrBlock is tryIssue's second check, shared with Quiesce: why warp
// w cannot issue its fetched instruction this cycle — an RC/TSO
// operand or ordering interlock, LDST admission, or a fence still
// draining — or notBlocked. It changes nothing.
func (s *SM) instrBlock(w *Warp, instr *Instr) blockReason {
	if s.cfg.Consistency == RC || s.cfg.Consistency == TSO {
		if !w.RegsReady(instr.SrcRegs...) {
			return blockedMem
		}
		if (instr.Op == OpLoad || instr.Op == OpAtomic) && w.pendingReg(instr.Dst) > 0 {
			return blockedMem // WAW on the destination register
		}
	}
	if s.cfg.Consistency == TSO {
		// Program order within each stream: loads retire before the
		// next load issues; stores acknowledge before the next store
		// issues. Loads bypass older stores (the TSO relaxation).
		if instr.Op != OpStore && w.pendingAcc > 0 {
			return blockedMem
		}
		if instr.Op != OpLoad && w.pendingStores > 0 {
			return blockedMem
		}
	}
	switch instr.Op {
	case OpLoad, OpStore, OpAtomic:
		if len(s.ldst) >= ldstQueueDepth {
			return blockedMem
		}
		if s.cfg.Consistency == RC && instr.Op != OpStore && w.pendingAcc >= maxPendingLoads {
			return blockedMem
		}
	case OpFence:
		if w.pendingAcc > 0 || w.pendingStores > 0 {
			return blockedFence
		}
		if s.now < w.gwct {
			return blockedGWCT
		}
	}
	return notBlocked
}

// tryIssue attempts to issue one instruction from warp w.
func (s *SM) tryIssue(w *Warp) (bool, blockReason) {
	if r := s.fetchBlock(w); r != notBlocked {
		return false, r
	}
	if w.cur == nil {
		instr, ready := w.prog.Next(w)
		if !ready {
			// Waiting on loaded data to fetch. Remember the stall so the
			// quiescence probe can classify this warp without re-running
			// Next: readiness can only change via a completion callback,
			// which clears the flag (see noteCompletion).
			w.fetchStalled = true
			return false, blockedMem
		}
		w.fetchStalled = false
		if instr == nil {
			s.finishWarp(w)
			return false, notBlocked
		}
		w.cur = instr
	}
	instr := w.cur
	switch r := s.instrBlock(w, instr); r {
	case notBlocked:
	case blockedFence, blockedGWCT:
		s.stats.FenceStallCycles++
		return false, blockedMem
	default:
		return false, r
	}
	switch instr.Op {
	case OpComp:
		w.busyUntil = s.now + uint64(instr.Cycles)
		w.cur = nil
	case OpALU:
		for lane := 0; lane < WarpWidth; lane++ {
			if w.Threads[lane] != nil {
				instr.Exec(w.Threads[lane])
			}
		}
		w.busyUntil = s.now + uint64(instr.Cycles)
		w.cur = nil
	case OpLoad, OpStore, OpAtomic:
		s.issueMem(w, instr)
	case OpFence:
		w.cur = nil
		s.stats.FencesIssued++
	case OpBarrier:
		w.atBarrier = true
		w.CTA.atBarrier++
		w.CTA.barrierRelease()
		// Reaching the barrier consumes an issue slot; the warp then
		// waits (cur is cleared by barrierRelease).
	default:
		panic(fmt.Sprintf("gpu: unknown opcode %d", instr.Op))
	}
	return true, notBlocked
}

// issueMem coalesces an admitted memory instruction (see instrBlock)
// and queues it on the LDST unit.
func (s *SM) issueMem(w *Warp, instr *Instr) {
	g := s.getGroup()
	accs := coalesce(g, w, instr)
	w.cur = nil
	if len(accs) == 0 {
		g.putGroup()
		return // fully divergent-off instruction
	}
	n := len(accs)
	switch instr.Op {
	case OpLoad:
		w.pendingAcc += n
		w.addPendingReg(instr.Dst, n)
		s.stats.LoadsIssued++
	case OpAtomic:
		// An atomic returns data (like a load) and writes (ordered
		// like a store); it counts against the load tracking so SC,
		// TSO and fences all wait for it.
		w.pendingAcc += n
		w.addPendingReg(instr.Dst, n)
		s.stats.AtomicsIssued++
	default:
		w.pendingStores += n
		s.stats.StoresIssued++
	}
	w.dispatching = true
	// live = one per access (released by its completion) plus one for
	// the streaming job (released when the last access dispatches).
	g.live = n + 1
	g.job = memJob{warp: w, instr: instr, accs: accs, group: g}
	s.ldst = append(s.ldst, &g.job)
}

// finishWarp retires a warp; when its CTA fully retires, the SM pulls
// more work from the dispatcher.
func (s *SM) finishWarp(w *Warp) {
	w.finished = true
	s.liveWarps--
	s.stats.WarpsRetired++
	cta := w.CTA
	cta.finished++
	cta.barrierRelease() // finished warps drop out of barriers
	if cta.finished == len(cta.Warps) {
		s.stats.CTAsRetired++
		s.residentCTAs--
		for _, cw := range cta.Warps {
			s.freeIDs = append(s.freeIDs, cw.ID)
		}
		if s.deferFills {
			s.pendingFill = true
		} else {
			s.fill()
		}
	}
}

// reapFinished compacts the resident warp list, retiring the contexts
// of fully retired CTAs. It runs after the issue scan, so a context
// never rejoins the SM in the cycle its warp left it: the scan order
// and the resident list see each context at most once.
func (s *SM) reapFinished() {
	kept := s.warps[:0]
	for _, w := range s.warps {
		if !w.finished || w.CTA.finished != len(w.CTA.Warps) {
			kept = append(kept, w)
		} else {
			s.retire(w)
		}
	}
	if len(kept) != len(s.warps) {
		s.rr = 0
	}
	if s.lastIssued != nil && s.lastIssued.finished {
		s.lastIssued = nil
	}
	s.warps = kept
}

// retire hands a context that has left the SM to the spare list, once
// nothing it issued is still in flight: an RC warp can retire with
// stores unacknowledged (a load whose register is never read, too),
// and their completions write into the context they were issued from.
// Until then it is only marked, and each completion retires it again.
func (s *SM) retire(w *Warp) {
	if w.pendingAcc > 0 || w.pendingStores > 0 {
		w.reclaim = true
		return
	}
	s.spare = append(s.spare, w)
}

// warpContext returns a context reset to exactly a freshly built one
// with regs zeroed registers per thread: a retired context from the
// spare list when there is one, otherwise a new allocation. The
// caller sets the identity fields.
func (s *SM) warpContext(regs int) *Warp {
	var w *Warp
	if n := len(s.spare); n > 0 {
		w = s.spare[n-1]
		s.spare[n-1] = nil
		s.spare = s.spare[:n-1]
		*w = Warp{regs: w.regs, pendingRegs: w.pendingRegs}
	} else {
		w = &Warp{}
	}
	clear(grow(&w.regs, WarpWidth*regs))
	clear(grow(&w.pendingRegs, regs))
	for lane := range w.lanes {
		t := &w.lanes[lane]
		t.Regs = w.regs[lane*regs : (lane+1)*regs : (lane+1)*regs]
		w.Threads[lane] = t
	}
	return w
}

// Dispatcher hands out the kernel's CTAs to SMs in launch order.
type Dispatcher struct {
	kernel  *Kernel
	nextCTA int
}

// NewDispatcher builds a dispatcher over kernel's grid.
func NewDispatcher(kernel *Kernel) *Dispatcher { return &Dispatcher{kernel: kernel} }

func (d *Dispatcher) exhausted() bool { return d.nextCTA >= d.kernel.CTAs }

// next sets up the next CTA's warps, threads and programs for SM s, on
// warp contexts SM s has retired where it has any.
func (d *Dispatcher) next(s *SM) *CTA {
	if d.exhausted() {
		return nil
	}
	id := d.nextCTA
	d.nextCTA++
	k := d.kernel
	regs := k.Regs
	if regs == 0 {
		regs = 8
	}
	cta := &CTA{ID: id, Warps: make([]*Warp, k.WarpsPerCTA)}
	ctaSize := k.WarpsPerCTA * WarpWidth
	for wi := range cta.Warps {
		w := s.warpContext(regs)
		w.CTA, w.InCTA = cta, wi
		for lane, t := range w.Threads {
			tid := wi*WarpWidth + lane
			t.CTA, t.Warp, t.Lane, t.TIDInCTA = id, wi, lane, tid
			t.GTID = id*ctaSize + tid
		}
		w.prog = k.ProgramFor(w)
		cta.Warps[wi] = w
	}
	return cta
}

// SetDeferFills switches CTA refills between immediate (the exact
// engine) and deferred-to-CommitFill (relaxed sync). See the
// deferFills field.
func (s *SM) SetDeferFills(v bool) { s.deferFills = v }

// CommitFill performs any CTA refill deferred during a relaxed epoch.
// The simulator calls it in SM index order at epoch barriers, so the
// dispatcher's draw order is a function of machine state, never of
// goroutine interleaving. A deferred refill voids the sleep record
// whether or not a CTA is left to assign, so the SM ticks again after
// the barrier that committed it.
func (s *SM) CommitFill() {
	if !s.pendingFill {
		return
	}
	s.pendingFill = false
	s.asleep = false
	s.fill()
}
