package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/gtsc-sim/gtsc/internal/experiments"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// minSims is the fewest simulations a measured run may hold, so that
// the p90 of per-simulation cost has ten samples beyond it.
const minSims = 100

// bench runs one workload in one process and keeps its correctness
// accounting: every simulation attempted, and every one that failed
// (an error or failed verification, statistics that differ from the
// cell's reference, or a traced run that differs from the untraced).
type bench struct {
	wl   *benchWorkload
	seed uint64
	log  io.Writer

	ref       map[string]*stats.Run // per cell, from the check pass
	attempted int
	failed    int
	rounds    int // rounds started; seeds each round's cell order
	calib     *calibState

	// Set by the check pass on the relaxed workload: mean absolute
	// cycle deviation of the relaxed cells from the exact engine.
	cycleDevPct float64
}

func (b *bench) fail(what string, err error) {
	b.failed++
	fmt.Fprintf(b.log, "FAIL %s: %v\n", what, err)
}

// cellRun is the outcome of one simulation of a cell. CPU durations are
// process CPU time spent in each phase.
type cellRun struct {
	run                        *stats.Run
	eng                        sim.EngineStats
	build, newSim, sim, verify time.Duration
	simWall                    time.Duration // the sim.run span
	err                        error
}

// Profile labels for harness work (building inputs, sim.New,
// verifying), which the profile attributes to the workload layer. The
// engine sets its own engine_phase labels inside Run and clears them on
// exit.
var (
	setupLabels  = pprof.WithLabels(context.Background(), pprof.Labels("bench_phase", "setup"))
	verifyLabels = pprof.WithLabels(context.Background(), pprof.Labels("bench_phase", "verify"))
)

// runCell builds, simulates and verifies one cell the way
// experiments.Session does: workload.Build, sim.New, Simulator.Run per
// kernel, then Instance.Verify. A non-nil tracer is installed between
// sim.New and the first Run; sp, when non-nil, receives the harness
// spans of the cell.
func runCell(c cell, tr *cellTracer, profiling bool, sp *[]span) cellRun {
	var out cellRun
	cfg := c.cfg
	cfg.ProfileLabels = profiling
	setLabels := func(ctx context.Context) {
		if profiling {
			pprof.SetGoroutineLabels(ctx)
		}
	}

	setLabels(setupLabels)
	w0, c0 := time.Now(), cpuNow()
	inst := c.build()
	w1, c1 := time.Now(), cpuNow()
	s := sim.New(cfg)
	if tr != nil {
		tr.install(s)
	}
	w2, c2 := time.Now(), cpuNow()
	setLabels(context.Background())

	if tr != nil {
		tr.epoch = w2
	}
	for i, k := range inst.Kernels {
		if tr != nil {
			tr.kernelID = 2 + i
		}
		ks := time.Now()
		run, err := s.Run(k)
		kd := time.Since(ks)
		if sp != nil {
			*sp = append(*sp, span{ID: 2 + i, Parent: 1, Name: "sim.kernel", Ctrl: k.Name,
				Start: int64(ks.Sub(w2)), Dur: int64(kd)})
		}
		if err != nil {
			out.err = fmt.Errorf("kernel %s: %w", k.Name, err)
			break
		}
		if out.run == nil {
			out.run = run
		} else {
			out.run.Accumulate(run)
		}
	}
	w3, c3 := time.Now(), cpuNow()
	out.eng = *s.Engine()

	setLabels(verifyLabels)
	if out.err == nil && inst.Verify != nil {
		if err := inst.Verify(s.ReadWord); err != nil {
			out.err = fmt.Errorf("workload verification failed: %w", err)
		}
	}
	w4, c4 := time.Now(), cpuNow()
	setLabels(context.Background())

	out.build, out.newSim, out.sim, out.verify = c1-c0, c2-c1, c3-c2, c4-c3
	out.simWall = w3.Sub(w2)
	if sp != nil {
		*sp = append(*sp,
			span{ID: 1, Name: "sim.run", Ctrl: c.name, Start: 0, Dur: int64(w3.Sub(w2))},
			span{Name: "workload.build", Ctrl: c.name, Start: int64(w0.Sub(w2)), Dur: int64(w1.Sub(w0))},
			span{Name: "sim.new", Ctrl: c.name, Start: int64(w1.Sub(w2)), Dur: int64(w2.Sub(w1))},
			span{Name: "workload.verify", Ctrl: c.name, Start: int64(w3.Sub(w2)), Dur: int64(w4.Sub(w3))})
	}
	return out
}

// roundOpts selects how a round runs.
type roundOpts struct {
	traced    bool   // install span tracers on every cell
	profiling bool   // set pprof labels (a CPU profile is being taken)
	record    string // cell whose raw spans are kept, "" for none
}

// cellTime is the host cost of one simulation in a round.
type cellTime struct {
	name       string
	setup, sim time.Duration // process CPU: build + sim.New, and the kernels
	cycles     uint64        // simulated cycles, 0 if the run failed
	// factor converts CPU time to calibrated seconds, from the
	// calibration slices just before and after the simulation (see
	// calibFactor).
	factor float64
}

func (c cellTime) calibrated(d time.Duration) float64 { return d.Seconds() * c.factor }

// round is one pass over every cell of the workload, in seeded order.
type round struct {
	wall                       time.Duration
	sim, build, newSim, verify time.Duration // CPU, summed over cells
	simWall                    time.Duration
	rt                         runtimeCounters
	heapPeak                   uint64 // largest heap goal after any simulation
	cells                      []cellTime
	slices                     []time.Duration // calibration slices, one more than cells
	total                      stats.Run       // counters summed over cells
	eng                        engineTotals
	runs                       map[string]*stats.Run
	errs                       map[string]error
	sims                       int

	// Traced rounds only.
	l1, l2       layerSpans
	selfNs       int64 // time in sim.kernel outside controller spans
	serialSelf   bool  // selfNs covers every cell (no domain workers)
	nested       int   // controller spans begun inside another
	raw          []span
	rawTruncated bool
}

// runRound runs every cell once, in an order seeded by the benchmark
// seed and the round number, with a calibration slice before each cell
// and after the last.
func (b *bench) runRound(opt roundOpts) *round {
	cells := b.wl.cells
	order := rand.New(rand.NewPCG(b.seed, uint64(b.rounds))).Perm(len(cells))
	b.rounds++
	r := &round{runs: map[string]*stats.Run{}, errs: map[string]error{}, serialSelf: true}

	runtime.GC() // outside the timed region
	rt0, w0 := readRuntime(), time.Now()
	for _, i := range order {
		c := cells[i]
		var tr *cellTracer
		var sp *[]span
		if opt.traced {
			tr = newCellTracer(c.cfg, c.name == opt.record)
			if tr.record {
				sp = &r.raw
			}
		}
		r.slices = append(r.slices, b.calib.slice())
		cr := runCell(c, tr, opt.profiling, sp)
		b.attempted++
		r.sims++
		r.sim += cr.sim
		r.build += cr.build
		r.newSim += cr.newSim
		r.verify += cr.verify
		r.simWall += cr.simWall
		r.eng.add(&cr.eng)
		ct := cellTime{name: c.name, setup: cr.build + cr.newSim, sim: cr.sim}
		if cr.err != nil {
			r.errs[c.name] = cr.err
		} else {
			r.runs[c.name] = cr.run
			r.total.Accumulate(cr.run)
			ct.cycles = cr.run.Cycles
		}
		r.cells = append(r.cells, ct)
		r.heapPeak = max(r.heapPeak, heapGoal())
		if tr != nil {
			r.l1.add(tr.l1s)
			r.l2.add(tr.l2s)
			r.nested += tr.nested
			if tr.serial {
				r.selfNs += int64(cr.simWall - tr.covered)
			} else {
				r.serialSelf = false
			}
			if tr.record {
				ctrl, truncated := tr.raw()
				r.raw = append(r.raw, ctrl...)
				r.rawTruncated = truncated
			}
		}
	}
	r.slices = append(r.slices, b.calib.slice())
	r.wall = time.Since(w0)
	r.rt = readRuntime().sub(rt0)
	for i := range r.cells {
		r.cells[i].factor = calibFactor(r.slices[i], r.slices[i+1])
	}
	return r
}

// calibrated sums over cells the median, across rounds, of a cell's
// calibrated CPU time in one phase. Medians per cell discard the rounds
// in which the host's speed swung between a cell and its slices.
func calibrated(rounds []*round, phase func(cellTime) time.Duration) float64 {
	per := map[string][]float64{}
	for _, r := range rounds {
		for _, c := range r.cells {
			per[c.name] = append(per[c.name], c.calibrated(phase(c)))
		}
	}
	var sum float64
	for _, xs := range per {
		sum += median(xs)
	}
	return sum
}

func simPhase(c cellTime) time.Duration   { return c.sim }
func setupPhase(c cellTime) time.Duration { return c.setup }

// check counts the round's failed simulations: errors, and statistics
// that differ from the cell's reference.
func (b *bench) check(r *round, traced bool) {
	for _, c := range b.wl.cells {
		if err, ok := r.errs[c.name]; ok {
			b.fail(c.name, err)
			continue
		}
		got, want := r.runs[c.name], b.ref[c.name]
		switch {
		case want == nil:
			b.fail(c.name, fmt.Errorf("no reference statistics: its check-pass run failed"))
		case !reflect.DeepEqual(got, want):
			what := "statistics differ between rounds"
			if traced {
				what = "traced statistics differ from untraced"
			}
			b.fail(c.name, fmt.Errorf("%s: %d cycles, reference %d", what, got.Cycles, want.Cycles))
		}
	}
}

// checkPass runs once per process, untimed, and doubles as the warm-up
// round: it records every cell's reference statistics. On fig12 the
// references come from experiments.Session.RunFig12 at Workers=1, so
// every later round also proves the grid reproduces the session's
// per-cell results. On relaxed it also runs each cell on the exact
// engine for the cycle-deviation reference.
func (b *bench) checkPass() {
	if b.wl.fig12 {
		b.fig12Reference()
		return
	}
	r := b.runRound(roundOpts{})
	for name, err := range r.errs {
		b.fail(name, err)
	}
	b.ref = r.runs
	if b.wl.relaxed {
		b.relaxedReference()
	}
}

// fig12Reference runs Session.RunFig12 serially and takes its cached
// per-cell runs as the references.
func (b *bench) fig12Reference() {
	s := experiments.NewSession(experiments.Config{Workers: 1})
	_, err := s.RunFig12()
	cached := s.CachedRuns()
	b.ref = map[string]*stats.Run{}
	b.attempted += len(b.wl.cells)
	if err != nil {
		fmt.Fprintf(b.log, "RunFig12: %v\n", err)
	}
	for key, run := range cached {
		wl, _, _ := strings.Cut(key, "/")
		for _, c := range b.wl.cells {
			if c.wl == wl && c.v.proto.String() == run.Protocol && c.v.cons.String() == run.Consistency {
				b.ref[c.name] = run
			}
		}
	}
	for _, c := range b.wl.cells {
		if _, ok := b.ref[c.name]; !ok {
			b.fail(c.name, fmt.Errorf("missing from Session.RunFig12"))
		}
	}
}

// relaxedReference runs every relaxed cell once on the exact engine
// and records the mean absolute cycle deviation of the relaxed runs.
func (b *bench) relaxedReference() {
	var sum float64
	n := 0
	for _, c := range b.wl.cells {
		cr := runCell(exactCell(c), nil, false, nil)
		b.attempted++
		if cr.err != nil {
			b.fail(c.name+" (exact engine)", cr.err)
			continue
		}
		rel, ok := b.ref[c.name]
		if !ok || cr.run.Cycles == 0 {
			continue
		}
		d := 100 * (float64(rel.Cycles) - float64(cr.run.Cycles)) / float64(cr.run.Cycles)
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n > 0 {
		b.cycleDevPct = sum / float64(n)
	}
}

// smallestCell is the cell with the fewest simulated cycles: the one
// whose raw spans are written out.
func (b *bench) smallestCell() string {
	best, name := uint64(0), ""
	for _, c := range b.wl.cells {
		if r, ok := b.ref[c.name]; ok && (name == "" || r.Cycles < best) {
			best, name = r.Cycles, c.name
		}
	}
	return name
}

// engineTotals sums the engine counters the per-layer metrics use.
type engineTotals struct {
	eventCycles, skippedCycles, dispatches uint64
	smTicks, smSleepCycles                 uint64
	hierTicks, hierSleeps                  uint64
	nocTicks, dramTicks                    uint64
	epochs, exchanged, held                uint64
}

func (t *engineTotals) add(e *sim.EngineStats) {
	t.eventCycles += e.EventCycles
	t.skippedCycles += e.SkippedCycles()
	t.dispatches += e.Dispatches()
	t.smTicks += e.SMTicks + e.Relaxed.SMDomainCycles
	t.smSleepCycles += e.SMSleepCycles + e.Relaxed.SMDomainSkipped
	t.hierTicks += e.Comp.HierarchyTicks()
	t.hierSleeps += e.Comp.HierarchySleeps()
	t.nocTicks += e.Comp.NoCTicks
	t.dramTicks += e.Comp.DRAMTicks
	t.epochs += e.Relaxed.Epochs
	t.exchanged += e.Relaxed.ExchangedMsgs
	t.held += e.Relaxed.HeldMsgs
}
