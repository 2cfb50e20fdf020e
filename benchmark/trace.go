package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/sim"
)

// opSpan accumulates the calls into one controller method and the
// nanoseconds they took.
type opSpan struct {
	calls int64
	ns    int64
}

func (o *opSpan) add(p opSpan) {
	o.calls += p.calls
	o.ns += p.ns
}

// span is one recorded call, kept for the cell whose raw spans the
// benchmark writes out. Controller spans get their ID when written.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the cell's top-level spans
	Name   string `json:"name"`
	Ctrl   string `json:"ctrl"`     // controller, kernel or cell the span belongs to
	Start  int64  `json:"start_ns"` // since the cell's sim.run span began
	Dur    int64  `json:"dur_ns"`
}

// ctrlSpans are the span accumulators of one controller instance. A
// controller is driven by one goroutine at a time (its relaxed domain
// worker, or the master at an epoch barrier, ordered by the engine's
// barrier), so its accumulators need no locking.
type ctrlSpans struct {
	tr   *cellTracer
	name string

	access, tick, deliver, dramFill opSpan
	rejects, syncs, quiescent       int64

	raw []span
}

// rawSpanCap bounds the raw spans kept per controller instance.
const rawSpanCap = 4096

func (c *ctrlSpans) begin() time.Time {
	if tr := c.tr; tr.serial {
		if tr.depth > 0 {
			tr.nested++
		}
		tr.depth++
	}
	return time.Now()
}

func (c *ctrlSpans) end(op *opSpan, name string, start time.Time) {
	d := time.Since(start)
	op.calls++
	op.ns += int64(d)
	tr := c.tr
	if tr.serial {
		tr.depth--
		tr.covered += d
	}
	if tr.record && len(c.raw) < rawSpanCap {
		c.raw = append(c.raw, span{Name: name, Ctrl: c.name, Parent: tr.kernelID,
			Start: int64(start.Sub(tr.epoch)), Dur: int64(d)})
	}
}

// tracedL1 times every call the engine and the SM make into one L1
// controller. It forwards everything else unchanged, so a traced run's
// statistics must equal an untraced run's.
type tracedL1 struct {
	coherence.L1
	s *ctrlSpans
}

func (t *tracedL1) Access(req *coherence.Request) coherence.AccessResult {
	start := t.s.begin()
	r := t.L1.Access(req)
	t.s.end(&t.s.access, "l1.access", start)
	if r == coherence.Reject {
		t.s.rejects++
	}
	return r
}

func (t *tracedL1) Deliver(msg *mem.Msg) {
	start := t.s.begin()
	t.L1.Deliver(msg)
	t.s.end(&t.s.deliver, "l1.deliver", start)
}

func (t *tracedL1) Tick(now uint64) {
	start := t.s.begin()
	t.L1.Tick(now)
	t.s.end(&t.s.tick, "l1.tick", start)
}

func (t *tracedL1) SyncClock(now uint64) {
	t.s.syncs++
	t.L1.SyncClock(now)
}

func (t *tracedL1) Quiescent() bool {
	t.s.quiescent++
	return t.L1.Quiescent()
}

// tracedL2 is tracedL1 for one L2 bank.
type tracedL2 struct {
	coherence.L2
	s *ctrlSpans
}

func (t *tracedL2) Deliver(msg *mem.Msg) {
	start := t.s.begin()
	t.L2.Deliver(msg)
	t.s.end(&t.s.deliver, "l2.deliver", start)
}

func (t *tracedL2) DRAMFill(msg *mem.Msg) {
	start := t.s.begin()
	t.L2.DRAMFill(msg)
	t.s.end(&t.s.dramFill, "l2.dram_fill", start)
}

func (t *tracedL2) Tick(now uint64) {
	start := t.s.begin()
	t.L2.Tick(now)
	t.s.end(&t.s.tick, "l2.tick", start)
}

func (t *tracedL2) SyncClock(now uint64) {
	t.s.syncs++
	t.L2.SyncClock(now)
}

func (t *tracedL2) Quiescent() bool {
	t.s.quiescent++
	return t.L2.Quiescent()
}

// cellTracer holds the spans of one traced simulation.
type cellTracer struct {
	// serial is set when one goroutine drives every controller (no
	// relaxed domain workers). Only then are nesting and the time the
	// controller spans cover tracked, because those accumulators are
	// shared across controllers.
	serial  bool
	depth   int
	nested  int
	covered time.Duration

	l1s, l2s []*ctrlSpans

	// Raw span recording: record is set for the one cell per workload
	// whose spans are written out; kernelID is the enclosing sim.kernel
	// span and epoch the start of the cell's sim.run span.
	record   bool
	kernelID int
	epoch    time.Time
}

func newCellTracer(cfg sim.Config, record bool) *cellTracer {
	return &cellTracer{
		serial: cfg.SimWorkers <= 1 || runtime.GOMAXPROCS(0) == 1,
		record: record,
	}
}

// install wraps every L1 and L2 controller of a freshly built
// simulator and rebuilds its SMs over the wrapped L1s, so the SMs'
// Access calls are timed too. The engine's per-run state is built
// lazily on the first Run, so replacing the SMs here is safe.
func (tr *cellTracer) install(s *sim.Simulator) {
	for i, l1 := range s.Sys.L1s {
		cs := &ctrlSpans{tr: tr, name: fmt.Sprintf("l1[%d]", i)}
		tr.l1s = append(tr.l1s, cs)
		s.Sys.L1s[i] = &tracedL1{L1: l1, s: cs}
	}
	for i, l2 := range s.Sys.L2s {
		cs := &ctrlSpans{tr: tr, name: fmt.Sprintf("l2[%d]", i)}
		tr.l2s = append(tr.l2s, cs)
		s.Sys.L2s[i] = &tracedL2{L2: l2, s: cs}
	}
	// The same SM config sim.New derives.
	smCfg := s.Cfg.SM
	smCfg.MaxWarps = s.Cfg.Mem.MaxWarps
	for i := range s.SMs {
		s.SMs[i] = gpu.NewSM(i, smCfg, s.Sys.L1s[i])
	}
}

// layerSpans totals one controller class's spans over a set of cells.
type layerSpans struct {
	access, tick, deliver, dramFill opSpan
	rejects, syncs, quiescent       int64
}

func (l *layerSpans) add(cs []*ctrlSpans) {
	for _, c := range cs {
		l.access.add(c.access)
		l.tick.add(c.tick)
		l.deliver.add(c.deliver)
		l.dramFill.add(c.dramFill)
		l.rejects += c.rejects
		l.syncs += c.syncs
		l.quiescent += c.quiescent
	}
}

// raw returns every recorded controller span of the cell.
func (tr *cellTracer) raw() (spans []span, truncated bool) {
	for _, cs := range append(append([]*ctrlSpans{}, tr.l1s...), tr.l2s...) {
		spans = append(spans, cs.raw...)
		truncated = truncated || len(cs.raw) == rawSpanCap
	}
	return spans, truncated
}
