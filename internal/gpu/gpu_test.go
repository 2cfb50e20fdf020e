package gpu

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// fakeL1 is a manually-controlled memory system: accesses park until
// the test completes them, so pipeline interlocks are observable.
type fakeL1 struct {
	parked  []*coherence.Request
	stats   stats.L1Stats
	instant bool // complete loads immediately with zeroes
	gwct    uint64
	store   *mem.Store
}

func (f *fakeL1) Access(req *coherence.Request) coherence.AccessResult {
	if f.instant {
		f.complete(req)
		return coherence.Hit
	}
	f.parked = append(f.parked, req)
	return coherence.Pending
}

func (f *fakeL1) complete(req *coherence.Request) {
	if req.Store {
		if f.store != nil {
			f.store.WriteBlock(req.Block, req.Data, req.Mask)
		}
		req.Done(coherence.Completion{GWCT: f.gwct})
		return
	}
	data := &mem.Block{}
	if f.store != nil {
		f.store.ReadBlock(req.Block, data)
	}
	req.Done(coherence.Completion{Data: data})
}

// release completes all parked accesses.
func (f *fakeL1) release() {
	parked := f.parked
	f.parked = nil
	for _, r := range parked {
		f.complete(r)
	}
}

func (f *fakeL1) Deliver(*mem.Msg)           {}
func (f *fakeL1) Tick(uint64)                {}
func (f *fakeL1) SyncClock(uint64)           {}
func (f *fakeL1) Flush()                     {}
func (f *fakeL1) Pending() int               { return len(f.parked) }
func (f *fakeL1) Quiescent() bool            { return true }
func (f *fakeL1) Stats() *stats.L1Stats      { return &f.stats }
func (f *fakeL1) Err() error                 { return nil }
func (f *fakeL1) DumpState() diag.CacheState { return diag.CacheState{Name: "fake-l1"} }
func (f *fakeL1) DigestState(io.Writer)      {}
func (f *fakeL1) Deliveries() uint64         { return 0 }

var _ coherence.L1 = (*fakeL1)(nil)

func addrGTID(base mem.Addr) func(t *Thread) (mem.Addr, bool) {
	return func(t *Thread) (mem.Addr, bool) { return base + mem.Addr(t.GTID*4), true }
}

// runSM builds one SM with the kernel entirely resident and ticks it
// until done or the bound is hit.
func runSM(t *testing.T, cfg SMConfig, k *Kernel, l1 *fakeL1, autorelease bool, bound int) *SM {
	t.Helper()
	sm := NewSM(0, cfg, l1)
	disp := NewDispatcher(k)
	sm.Launch(k, disp)
	for sm.FillOne() {
	}
	for c := 1; c <= bound; c++ {
		sm.Tick(uint64(c))
		if autorelease && c%3 == 0 {
			l1.release()
		}
	}
	if autorelease {
		for i := 0; i < 10 && !sm.Done(); i++ {
			l1.release()
			sm.Tick(uint64(bound + i + 1))
		}
	}
	return sm
}

func TestCoalescerMergesBlocks(t *testing.T) {
	w := &Warp{}
	for lane := 0; lane < WarpWidth; lane++ {
		w.Threads[lane] = &Thread{Lane: lane, GTID: lane, Regs: make([]uint32, 4)}
	}
	// All lanes read consecutive words of one block: 1 access.
	one := coalesce(&accGroup{}, w, Load(0, func(t *Thread) (mem.Addr, bool) {
		return mem.Addr(t.Lane * 4), true
	}))
	if len(one) != 1 || one[0].mask != mem.MaskAll {
		t.Fatalf("expected 1 full-mask access, got %d (%#x)", len(one), one[0].mask)
	}
	// Stride of one block per lane: 32 accesses.
	many := coalesce(&accGroup{}, w, Load(0, func(t *Thread) (mem.Addr, bool) {
		return mem.Addr(t.Lane * mem.BlockBytes), true
	}))
	if len(many) != WarpWidth {
		t.Fatalf("expected %d accesses, got %d", WarpWidth, len(many))
	}
	// Divergence: odd lanes off -> half coverage.
	half := coalesce(&accGroup{}, w, Load(0, func(t *Thread) (mem.Addr, bool) {
		return mem.Addr(t.Lane * 4), t.Lane%2 == 0
	}))
	if len(half) != 1 || half[0].mask.Count() != WarpWidth/2 {
		t.Fatalf("divergent coalesce wrong: %d accesses mask %d", len(half), half[0].mask.Count())
	}
	// Store values land at word positions.
	st := coalesce(&accGroup{}, w, Store(func(t *Thread) (mem.Addr, bool) {
		return mem.Addr(t.Lane * 4), true
	}, func(t *Thread) uint32 { return uint32(t.Lane + 100) }))
	if st[0].data.Words[5] != 105 {
		t.Fatalf("store value misplaced: %d", st[0].data.Words[5])
	}
}

func TestSeqAndLoopPrograms(t *testing.T) {
	p := Seq(Comp(1), Fence())
	i1, ok := p.Next(nil)
	if !ok || i1.Op != OpComp {
		t.Fatal("seq first")
	}
	i2, _ := p.Next(nil)
	if i2.Op != OpFence {
		t.Fatal("seq second")
	}
	if i3, ok := p.Next(nil); i3 != nil || !ok {
		t.Fatal("seq end")
	}

	calls := 0
	lp := &LoopProgram{Iters: 3, Body: func(iter int) []*Instr {
		calls++
		return []*Instr{Comp(iter + 1)}
	}}
	var cycles []int
	for {
		in, _ := lp.Next(nil)
		if in == nil {
			break
		}
		cycles = append(cycles, in.Cycles)
	}
	if len(cycles) != 3 || cycles[0] != 1 || cycles[2] != 3 || calls != 3 {
		t.Fatalf("loop program wrong: %v (%d calls)", cycles, calls)
	}
}

func TestSCBlocksBehindOutstandingMemory(t *testing.T) {
	l1 := &fakeL1{}
	k := &Kernel{
		Name: "sc", CTAs: 1, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *Warp) Program {
			return Seq(
				Load(0, addrGTID(0)),
				Comp(1), // must NOT issue while the load is outstanding under SC
			)
		},
	}
	sm := runSM(t, SMConfig{Consistency: SC, MaxWarps: 4}, k, l1, false, 20)
	if got := sm.Stats().InstrIssued; got != 1 {
		t.Fatalf("SC issued %d instructions with load outstanding, want 1", got)
	}
	if sm.Stats().MemStallCycles == 0 {
		t.Fatal("memory stalls must accumulate")
	}
	l1.release()
	for c := 21; c <= 30; c++ {
		sm.Tick(uint64(c))
	}
	if !sm.Done() {
		t.Fatal("warp should finish after release")
	}
}

func TestRCScoreboardAllowsIndependentWork(t *testing.T) {
	l1 := &fakeL1{}
	k := &Kernel{
		Name: "rc", CTAs: 1, WarpsPerCTA: 1, Regs: 4,
		ProgramFor: func(w *Warp) Program {
			return Seq(
				Load(0, addrGTID(0)),
				Comp(1),                   // independent: may issue
				Load(1, addrGTID(0x1000)), // independent load: may issue
				ALU(func(t *Thread) { _ = t.Regs[0] }, 0), // depends on r0: must wait
			)
		},
	}
	sm := runSM(t, SMConfig{Consistency: RC, MaxWarps: 4}, k, l1, false, 30)
	// Under RC the comp and the second load issue past the first load;
	// the dependent ALU stalls. Loads dispatch through the LDST unit.
	if got := sm.Stats().InstrIssued; got != 3 {
		t.Fatalf("RC issued %d, want 3 (two loads + comp)", got)
	}
	l1.release()
	for c := 31; c <= 45; c++ {
		sm.Tick(uint64(c))
		l1.release()
	}
	if !sm.Done() {
		t.Fatal("kernel should complete")
	}
}

func TestFenceWaitsForGWCT(t *testing.T) {
	l1 := &fakeL1{instant: true, gwct: 50}
	k := &Kernel{
		Name: "fence", CTAs: 1, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *Warp) Program {
			return Seq(
				Store(addrGTID(0), func(t *Thread) uint32 { return 1 }),
				Fence(), // must hold until cycle 50 (the GWCT)
				Comp(1),
			)
		},
	}
	sm := NewSM(0, SMConfig{Consistency: RC, MaxWarps: 4}, l1)
	disp := NewDispatcher(k)
	sm.Launch(k, disp)
	for sm.FillOne() {
	}
	doneAt := 0
	for c := 1; c <= 80 && doneAt == 0; c++ {
		sm.Tick(uint64(c))
		if sm.Done() {
			doneAt = c
		}
	}
	if doneAt == 0 {
		t.Fatal("kernel never finished")
	}
	if doneAt < 50 {
		t.Fatalf("fence released at %d, before GWCT 50", doneAt)
	}
	if sm.Stats().FenceStallCycles == 0 {
		t.Fatal("fence stalls not counted")
	}
}

func TestBarrierSynchronizesCTA(t *testing.T) {
	l1 := &fakeL1{instant: true}
	var order []int
	k := &Kernel{
		Name: "barrier", CTAs: 1, WarpsPerCTA: 2, Regs: 2,
		ProgramFor: func(w *Warp) Program {
			if w.InCTA == 0 {
				// Warp 0 computes for a long time before the barrier.
				return Seq(
					Comp(25),
					Barrier(),
					ALU(func(t *Thread) {
						if t.Lane == 0 {
							order = append(order, 0)
						}
					}),
				)
			}
			return Seq(
				Barrier(),
				ALU(func(t *Thread) {
					if t.Lane == 0 {
						order = append(order, 1)
					}
				}),
			)
		},
	}
	sm := NewSM(0, SMConfig{Consistency: SC, MaxWarps: 4}, l1)
	disp := NewDispatcher(k)
	sm.Launch(k, disp)
	for sm.FillOne() {
	}
	for c := 1; c <= 15; c++ {
		sm.Tick(uint64(c))
	}
	if len(order) != 0 {
		t.Fatal("no warp may pass the barrier while warp 0 has not reached it")
	}
	if sm.Stats().BarrierStallCycles == 0 {
		t.Fatal("barrier stalls not counted")
	}
	for c := 16; c <= 60; c++ {
		sm.Tick(uint64(c))
	}
	if len(order) != 2 || !sm.Done() {
		t.Fatalf("both warps must pass after warp 0 arrives (order=%v done=%t)", order, sm.Done())
	}
}

func TestDataDependentProgramRetriesFetch(t *testing.T) {
	l1 := &fakeL1{store: mem.NewStore()}
	l1.store.WriteWord(0, 3) // loop bound loaded from memory
	iterations := 0
	k := &Kernel{
		Name: "dyn", CTAs: 1, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *Warp) Program {
			phase := 0
			return FuncProgram(func(w *Warp) (*Instr, bool) {
				switch {
				case phase == 0:
					phase = 1
					return Load(0, func(t *Thread) (mem.Addr, bool) { return 0, t.Lane == 0 }), true
				case phase == 1:
					if !w.RegsReady(0) {
						return nil, false // branch depends on the load
					}
					phase = 2
					fallthrough
				default:
					if iterations < int(w.Reg(0, 0)) {
						iterations++
						return Comp(1), true
					}
					return nil, true
				}
			})
		},
	}
	sm := runSM(t, SMConfig{Consistency: RC, MaxWarps: 4}, k, l1, true, 40)
	if !sm.Done() {
		t.Fatal("dynamic program did not finish")
	}
	if iterations != 3 {
		t.Fatalf("loop ran %d times, want 3 (loaded bound)", iterations)
	}
}

func TestDispatcherRoundRobinAndOccupancy(t *testing.T) {
	k := &Kernel{
		Name: "occ", CTAs: 6, WarpsPerCTA: 2, Regs: 1, MaxCTAsPerSM: 2,
		ProgramFor: func(w *Warp) Program { return Seq(Comp(1)) },
	}
	disp := NewDispatcher(k)
	l1a, l1b := &fakeL1{instant: true}, &fakeL1{instant: true}
	smA := NewSM(0, SMConfig{MaxWarps: 48}, l1a)
	smB := NewSM(1, SMConfig{MaxWarps: 48}, l1b)
	smA.Launch(k, disp)
	smB.Launch(k, disp)
	// Round-robin fill honouring MaxCTAsPerSM.
	for filled := true; filled; {
		filled = smA.FillOne() || smB.FillOne()
	}
	if smA.residentCTAs != 2 || smB.residentCTAs != 2 {
		t.Fatalf("occupancy limit violated: %d/%d", smA.residentCTAs, smB.residentCTAs)
	}
	if disp.exhausted() {
		t.Fatal("2 CTAs must remain queued")
	}
	// Run both SMs; retiring CTAs must pull the remaining work.
	for c := 1; c <= 200 && !(smA.Done() && smB.Done()); c++ {
		smA.Tick(uint64(c))
		smB.Tick(uint64(c))
	}
	if !smA.Done() || !smB.Done() {
		t.Fatal("kernel did not drain")
	}
	if got := smA.Stats().CTAsRetired + smB.Stats().CTAsRetired; got != 6 {
		t.Fatalf("retired %d CTAs, want 6", got)
	}
	if smA.Stats().WarpsRetired+smB.Stats().WarpsRetired != 12 {
		t.Fatal("warp retirement count wrong")
	}
}

func TestThreadIdentity(t *testing.T) {
	k := &Kernel{
		Name: "ids", CTAs: 3, WarpsPerCTA: 2, Regs: 1,
		ProgramFor: func(w *Warp) Program { return Seq() },
	}
	disp := NewDispatcher(k)
	sm := NewSM(0, SMConfig{MaxWarps: 48}, &fakeL1{instant: true})
	sm.Launch(k, disp)
	for sm.FillOne() {
	}
	seen := map[int]bool{}
	for _, w := range sm.warps {
		for lane, th := range w.Threads {
			if th.Lane != lane {
				t.Fatal("lane mismatch")
			}
			want := th.CTA*2*WarpWidth + th.Warp*WarpWidth + lane
			if th.GTID != want {
				t.Fatalf("GTID %d, want %d", th.GTID, want)
			}
			if seen[th.GTID] {
				t.Fatalf("duplicate GTID %d", th.GTID)
			}
			seen[th.GTID] = true
		}
	}
	if len(seen) != 3*2*WarpWidth {
		t.Fatalf("thread count %d", len(seen))
	}
}

func TestConsistencyString(t *testing.T) {
	if SC.String() != "SC" || RC.String() != "RC" {
		t.Fatal("names wrong")
	}
}

// TestGTOStickiness: under GTO the same warp keeps issuing while
// ready; under LRR issue alternates.
func TestGTOStickiness(t *testing.T) {
	issueOrder := func(sched Scheduler) []int {
		var order []int
		k := &Kernel{
			Name: "sticky", CTAs: 1, WarpsPerCTA: 2, Regs: 1,
			ProgramFor: func(w *Warp) Program {
				id := w.InCTA
				return Seq(
					ALU(func(t *Thread) {
						if t.Lane == 0 {
							order = append(order, id)
						}
					}),
					ALU(func(t *Thread) {
						if t.Lane == 0 {
							order = append(order, id)
						}
					}),
				)
			},
		}
		sm := NewSM(0, SMConfig{MaxWarps: 4, Scheduler: sched}, &fakeL1{instant: true})
		disp := NewDispatcher(k)
		sm.Launch(k, disp)
		for sm.FillOne() {
		}
		for c := 1; c <= 30 && !sm.Done(); c++ {
			sm.Tick(uint64(c))
		}
		return order
	}
	gto := issueOrder(GTO)
	lrr := issueOrder(LRR)
	if len(gto) != 4 || len(lrr) != 4 {
		t.Fatalf("instruction counts wrong: gto=%v lrr=%v", gto, lrr)
	}
	// GTO stays on warp 0 until it finishes: 0,0,1,1.
	if !(gto[0] == 0 && gto[1] == 0) {
		t.Fatalf("GTO not greedy: %v", gto)
	}
	// LRR alternates: 0,1,0,1.
	if !(lrr[0] == 0 && lrr[1] == 1) {
		t.Fatalf("LRR not round-robin: %v", lrr)
	}
}

// TestAtomicCoalescingPrefix: three lanes adding to the same word are
// warp-aggregated, and each lane reconstructs its serial old value.
func TestAtomicCoalescingPrefix(t *testing.T) {
	w := &Warp{}
	for lane := 0; lane < WarpWidth; lane++ {
		w.Threads[lane] = &Thread{Lane: lane, GTID: lane, Regs: make([]uint32, 4)}
	}
	instr := Atomic(mem.AtomAdd, 0, func(t *Thread) (mem.Addr, bool) {
		return 0x100, t.Lane < 3 // three lanes, same word
	}, func(t *Thread) uint32 { return uint32(t.Lane + 1) }) // +1, +2, +3
	accs := coalesce(&accGroup{}, w, instr)
	if len(accs) != 1 {
		t.Fatalf("expected 1 coalesced access, got %d", len(accs))
	}
	word := mem.Addr(0x100).WordIndex()
	if accs[0].data.Words[word] != 6 {
		t.Fatalf("combined operand = %d, want 6", accs[0].data.Words[word])
	}
	wantPrefix := []uint32{0, 1, 3}
	for i, lt := range accs[0].lanes {
		if lt.prefix != wantPrefix[i] {
			t.Fatalf("lane %d prefix = %d, want %d", i, lt.prefix, wantPrefix[i])
		}
	}
}

func TestSchedulerString(t *testing.T) {
	if LRR.String() != "LRR" || GTO.String() != "GTO" {
		t.Fatal("scheduler names wrong")
	}
	if TSO.String() != "TSO" {
		t.Fatal("TSO name wrong")
	}
}

// rejectingL1 rejects every access while full and completes it at
// once otherwise. As coherence.Reject requires, only a delivery
// changes its decision (Deliver empties it). It counts presentations.
type rejectingL1 struct {
	fakeL1
	full      bool
	arrived   uint64
	presented int
}

func (r *rejectingL1) Access(req *coherence.Request) coherence.AccessResult {
	r.presented++
	if r.full {
		return coherence.Reject
	}
	r.complete(req)
	return coherence.Hit
}

func (r *rejectingL1) Deliver(*mem.Msg)   { r.arrived++; r.full = false }
func (r *rejectingL1) Deliveries() uint64 { return r.arrived }

// TestLDSTRetriesRejectedAccesses: a rejected LDST head is parked.
// Awake or asleep, the SM presents it again only after a Deliver
// reaches the L1, and it sleeps on it once its warps all stall. After
// the delivery the SM is stirred, the head is presented again and the
// kernel completes.
func TestLDSTRetriesRejectedAccesses(t *testing.T) {
	l1 := &rejectingL1{full: true}
	k := &Kernel{
		Name: "retry", CTAs: 1, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(w *Warp) Program {
			return Seq(
				Load(0, addrGTID(0)),
				Store(addrGTID(0x1000), func(t *Thread) uint32 { return 1 }),
			)
		},
	}
	sm := NewSM(0, SMConfig{Consistency: SC, MaxWarps: 4}, l1)
	disp := NewDispatcher(k)
	sm.Launch(k, disp)
	for sm.FillOne() {
	}
	// Cycle 1 issues the load, cycle 2 presents it, cycles 3-6 do not.
	for c := uint64(1); c <= 6; c++ {
		sm.Tick(c)
	}
	if l1.presented != 1 {
		t.Fatalf("parked head: %d presentations, want 1", l1.presented)
	}
	if !sm.Sleep() {
		t.Fatal("an SM whose only warp waits on a parked head must sleep")
	}
	if sm.Stirred() {
		t.Fatal("stirred with no delivery")
	}
	if got := sm.SleepThrough(10); got != 4 || l1.presented != 1 {
		t.Fatalf("SleepThrough(10) applied %d cycles, %d presentations; want 4 and 1", got, l1.presented)
	}
	l1.Deliver(nil)
	if !sm.Stirred() {
		t.Fatal("a delivery into the L1 must stir the parked SM")
	}
	sm.Wake(10)
	for c := uint64(11); c <= 40 && !sm.Done(); c++ {
		sm.Tick(c)
	}
	if !sm.Done() {
		t.Fatal("kernel must complete once the L1 takes a delivery")
	}
	if l1.presented != 3 {
		t.Fatalf("after the delivery: %d presentations, want 3 (load twice, store)", l1.presented)
	}
}

// storeHoldL1 completes every access at once, except that while hold
// is set it withholds store acknowledgements until release.
type storeHoldL1 struct {
	fakeL1
	hold bool
}

func (l *storeHoldL1) Access(req *coherence.Request) coherence.AccessResult {
	if req.Store && l.hold {
		l.parked = append(l.parked, req)
		return coherence.Pending
	}
	l.complete(req)
	return coherence.Hit
}

// TestRecycledContextWaitsForInFlightStores: an RC warp retires with a
// store unacknowledged. Its context must not serve another CTA until
// the ack lands, the late ack must leave the CTA then resident alone,
// and once acknowledged the context is reused, reset to a fresh one.
func TestRecycledContextWaitsForInFlightStores(t *testing.T) {
	l1 := &storeHoldL1{hold: true}
	k := &Kernel{
		Name: "recycle", CTAs: 4, WarpsPerCTA: 1, Regs: 2,
		ProgramFor: func(*Warp) Program {
			return Seq(
				ALU(func(t *Thread) { t.Regs[0] = uint32(t.GTID + 1) }),
				Store(addrGTID(0x1000), func(t *Thread) uint32 { return t.Regs[0] }, 0),
			)
		},
	}
	// One warp context: each CTA runs alone, filling the slot its
	// predecessor frees.
	sm := NewSM(0, SMConfig{Consistency: RC, MaxWarps: 1}, l1)
	sm.Launch(k, NewDispatcher(k))
	sm.FillOne()
	first := sm.warps[0]
	now := uint64(0)
	tickUntil := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; i < 100 && !cond(); i++ {
			now++
			sm.Tick(now)
		}
		if !cond() {
			t.Fatalf("never reached: %s", what)
		}
	}
	retired := func(n uint64) func() bool {
		return func() bool { return sm.Stats().CTAsRetired == n }
	}

	tickUntil("CTA 0 retires", retired(1))
	if first.pendingStores != 1 || len(l1.parked) != 1 {
		t.Fatalf("CTA 0 retired with %d stores pending (%d parked), want 1", first.pendingStores, len(l1.parked))
	}
	// CTA 1 retires with its store acknowledged at once and CTA 2
	// takes the slot while CTA 0's store is still in flight.
	l1.hold = false
	tickUntil("CTA 1 retires", retired(2))
	cur := sm.warps[0]
	if len(sm.warps) != 1 || cur.CTA.ID != 2 {
		t.Fatalf("resident warps %d, CTA %d; want CTA 2 alone", len(sm.warps), cur.CTA.ID)
	}
	if cur == first {
		t.Fatal("CTA 2 got CTA 0's warp context while CTA 0's store was unacknowledged")
	}

	// The late ack, carrying a GWCT, lands on CTA 0's context only.
	l1.gwct = 77
	l1.release()
	if cur.pendingStores != 0 || cur.pendingAcc != 0 || cur.gwct != 0 {
		t.Fatalf("late ack touched CTA 2's warp: stores %d, accesses %d, gwct %d",
			cur.pendingStores, cur.pendingAcc, cur.gwct)
	}
	for _, th := range cur.Threads {
		if th.Regs[0] != 0 || th.Regs[1] != 0 {
			t.Fatalf("late ack touched CTA 2's registers: lane %d %v", th.Lane, th.Regs)
		}
	}
	if first.pendingStores != 0 {
		t.Fatalf("CTA 0's context has %d stores pending after the ack", first.pendingStores)
	}

	// Once acknowledged, CTA 0's context serves CTA 3, as fresh.
	l1.gwct = 0
	tickUntil("CTA 2 retires", retired(3))
	if w := sm.warps[0]; w != first || w.CTA.ID != 3 {
		t.Fatalf("CTA 3 runs on %p (CTA %d), want CTA 0's acknowledged context %p", w, w.CTA.ID, first)
	}
	if first.finished || first.reclaim || first.gwct != 0 || first.pendingStores != 0 ||
		first.cur != nil || first.InCTA != 0 || len(first.pendingRegs) != k.Regs {
		t.Fatalf("recycled context not reset: %+v", first)
	}
	for lane, th := range first.Threads {
		if th.CTA != 3 || th.Lane != lane || th.GTID != 3*WarpWidth+lane || len(th.Regs) != k.Regs ||
			th.Regs[0] != 0 || th.Regs[1] != 0 {
			t.Fatalf("recycled thread %d not reset: %+v", lane, *th)
		}
	}
	tickUntil("kernel drains", sm.Done)
	if got := sm.Stats().WarpsRetired; got != 4 {
		t.Fatalf("retired %d warps, want 4", got)
	}
}

// refAccess is one access of refCoalesce: a lane-target list and a
// data block for every access, whatever its op.
type refAccess struct {
	block mem.BlockAddr
	mask  mem.WordMask
	lanes []refLane
	data  mem.Block
}

type refLane struct {
	lane, word int
	prefix     uint32
}

// refCoalesce is the coalescer's two-pass form before its bookkeeping
// was sized to the op, kept as the oracle TestCoalescerMatchesReference
// checks coalesce against. Pass 1 resolves every lane's address and
// assigns block slots by a linear scan; pass 2 fills each access in
// lane order.
func refCoalesce(w *Warp, instr *Instr) []refAccess {
	var (
		laneBlk  [WarpWidth]int // lane -> block slot (-1: inactive)
		laneWord [WarpWidth]int
		laneVal  [WarpWidth]uint32
		blocks   [WarpWidth]mem.BlockAddr // distinct blocks, encounter order
	)
	needVal := instr.Op == OpStore || instr.Op == OpAtomic
	nBlocks := 0
	for lane := 0; lane < WarpWidth; lane++ {
		laneBlk[lane] = -1
		t := w.Threads[lane]
		if t == nil {
			continue
		}
		addr, ok := instr.Addr(t)
		if !ok {
			continue
		}
		b := addr.Block()
		slot := -1
		for i := 0; i < nBlocks; i++ {
			if blocks[i] == b {
				slot = i
				break
			}
		}
		if slot < 0 {
			slot = nBlocks
			blocks[slot] = b
			nBlocks++
		}
		laneBlk[lane] = slot
		laneWord[lane] = addr.WordIndex()
		if needVal {
			laneVal[lane] = instr.Val(t)
		}
	}
	if nBlocks == 0 {
		return nil
	}
	out := make([]refAccess, nBlocks)
	for i := range out {
		out[i].block = blocks[i]
	}
	for lane := 0; lane < WarpWidth; lane++ {
		slot := laneBlk[lane]
		if slot < 0 {
			continue
		}
		acc := &out[slot]
		word := laneWord[lane]
		lt := refLane{lane: lane, word: word}
		switch instr.Op {
		case OpStore:
			acc.data.Words[word] = laneVal[lane]
		case OpAtomic:
			if acc.mask.Has(word) {
				lt.prefix = acc.data.Words[word]
				acc.data.Words[word] = instr.Atom.Combine(acc.data.Words[word], laneVal[lane])
			} else {
				acc.data.Words[word] = laneVal[lane]
			}
		}
		acc.mask = acc.mask.Set(word)
		acc.lanes = append(acc.lanes, lt)
	}
	return out
}

// TestCoalescerMatchesReference checks coalesce against refCoalesce on
// seeded random warp instructions: contiguous, strided, scattered and
// single-block addresses; divergent warps, fully inactive ones and
// warps with absent lanes; loads, stores, and atomics whose lanes
// share words. Block order, masks, lane counts, lane lists (with
// AtomAdd prefixes) and data words must agree. One group serves every
// instruction, as a recycled group does, so stale bookkeeping from an
// earlier op shows too.
func TestCoalescerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := &accGroup{}
	patterns := []string{"contiguous", "strided", "scattered", "single-block"}
	var addrs [WarpWidth]mem.Addr
	var active [WarpWidth]bool
	addr := func(t *Thread) (mem.Addr, bool) { return addrs[t.Lane], active[t.Lane] }
	val := func(t *Thread) uint32 { return uint32(t.GTID*7+3) % 11 }
	covered := map[string]int{}
	for iter := 0; iter < 4000; iter++ {
		w := &Warp{}
		absent := rng.Intn(4) == 0 // a partial warp: some lanes hold no thread
		for lane := 0; lane < WarpWidth; lane++ {
			if !absent || rng.Intn(3) != 0 {
				w.Threads[lane] = &Thread{Lane: lane, GTID: iter*WarpWidth + lane}
			}
		}
		switch rng.Intn(5) {
		case 0: // fully inactive
			active = [WarpWidth]bool{}
		case 1, 2: // divergent
			for lane := range active {
				active[lane] = rng.Intn(2) == 0
			}
		default:
			for lane := range active {
				active[lane] = true
			}
		}
		pattern := patterns[rng.Intn(len(patterns))]
		base := mem.Addr(rng.Intn(1<<16)) &^ 3
		stride := mem.Addr(1+rng.Intn(64)) * 4
		for lane := range addrs {
			switch pattern {
			case "contiguous":
				addrs[lane] = base + mem.Addr(lane*4)
			case "strided":
				addrs[lane] = base + mem.Addr(lane)*stride
			case "scattered": // over four blocks, so lanes share words
				addrs[lane] = base&^(mem.BlockBytes-1) + mem.Addr(rng.Intn(4*mem.BlockBytes/4)*4)
			default: // one block, lanes sharing words
				addrs[lane] = base&^(mem.BlockBytes-1) + mem.Addr(rng.Intn(8)*4)
			}
		}
		var instr *Instr
		switch rng.Intn(3) {
		case 0:
			instr = Load(1, addr)
		case 1:
			instr = Store(addr, val)
		default:
			instr = Atomic(mem.AtomicOp(rng.Intn(3)), 1, addr, val)
		}
		got, want := coalesce(g, w, instr), refCoalesce(w, instr)
		name := fmt.Sprintf("iter %d (%s, op %d)", iter, pattern, instr.Op)
		if len(got) != len(want) {
			t.Fatalf("%s: %d accesses, reference %d", name, len(got), len(want))
		}
		covered[pattern] += len(got)
		for i := range want {
			a, r := &got[i], &want[i]
			if a.block != r.block || a.mask != r.mask || int(a.n) != len(r.lanes) {
				t.Fatalf("%s access %d: block %#x mask %#x lanes %d, reference %#x %#x %d",
					name, i, a.block, a.mask, a.n, r.block, r.mask, len(r.lanes))
			}
			if instr.Op == OpStore {
				if a.lanes != nil {
					t.Fatalf("%s access %d: a store keeps %d lane targets", name, i, len(a.lanes))
				}
			} else {
				if len(a.lanes) != len(r.lanes) {
					t.Fatalf("%s access %d: %d lane targets, reference %d", name, i, len(a.lanes), len(r.lanes))
				}
				for j, lt := range a.lanes {
					if rl := r.lanes[j]; int(lt.lane) != rl.lane || int(lt.word) != rl.word || lt.prefix != rl.prefix {
						t.Fatalf("%s access %d lane target %d: %+v, reference %+v", name, i, j, lt, rl)
					}
				}
			}
			if instr.Op == OpLoad {
				if a.data != nil {
					t.Fatalf("%s access %d: a load keeps a data block", name, i)
				}
			} else if *a.data != r.data {
				t.Fatalf("%s access %d: data %v, reference %v", name, i, a.data.Words, r.data.Words)
			}
		}
	}
	for _, p := range patterns {
		if covered[p] == 0 {
			t.Errorf("pattern %s produced no access", p)
		}
	}
}
