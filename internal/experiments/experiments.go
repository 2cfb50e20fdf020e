// Package experiments regenerates every table and figure of the
// paper's evaluation (Section VI) over the simulator: Table II and
// Figs 12–17, the §VI-E expiry-miss characterization, and the §V
// ablations. Each driver returns structured results and can print the
// same rows/series the paper reports.
//
// Every driver reads its simulations through one path: it names the
// workloads × variants it needs at one or more machine points
// (Session.grid), the session runs them across its worker pool, and
// the driver assembles its result from the returned runs. Runs are
// cached per (workload, variant, machine point) within a Session,
// since most figures share the same underlying simulations.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// Config parameterizes an experiment session.
type Config struct {
	// Scale is the workload scale factor (1 = test size; the default
	// experiment scale is 2).
	Scale int
	// Machine is the machine every run starts from: a run sets only
	// its variant's protocol, consistency and G-TSC options on a copy.
	// Its SimWorkers multiplies with Workers, so keep the product near
	// GOMAXPROCS. The zero value means DefaultConfig's.
	Machine sim.Config
	// Workers bounds how many simulations the session runs
	// concurrently when a driver fans out its grid (0 = GOMAXPROCS,
	// 1 = fully serial). Every simulation is hermetic — fresh
	// simulator, store, RNG and observer per run — so the results are
	// bit-identical for any worker count; only wall-clock time changes.
	Workers int
	// KeepGoing makes a sweep survive individual run failures: a
	// failed (workload, variant) cell no longer aborts its experiment;
	// assembly leaves the cell out, and RunAll/RunOne print the
	// experiment's manifest of the failed cells it read (see also
	// Session.Missing).
	KeepGoing bool
}

// DefaultConfig returns the paper-scale machine at scale 2, with a
// cycle budget of 500 M cycles per kernel.
func DefaultConfig() Config {
	m := sim.DefaultConfig()
	m.MaxCycles = 500_000_000
	return Config{Scale: 2, Machine: m}
}

// variant identifies one simulated configuration of a workload.
type variant struct {
	proto      memsys.Protocol
	cons       gpu.Consistency
	lease      uint64 // 0 = session default
	forwardAll bool
	oldCopy    bool
	adaptive   bool // adaptive lease policy (extension)
}

// Canonical variants used across figures.
var (
	vBL     = variant{proto: memsys.BL, cons: gpu.RC}
	vGTSCRC = variant{proto: memsys.GTSC, cons: gpu.RC}
	vGTSCSC = variant{proto: memsys.GTSC, cons: gpu.SC}
	vTCRC   = variant{proto: memsys.TC, cons: gpu.RC}
	vTCSC   = variant{proto: memsys.TC, cons: gpu.SC}
	vL1NC   = variant{proto: memsys.L1NC, cons: gpu.RC}
)

// Session runs and caches simulations for one Config. It is safe for
// concurrent use: the result cache is single-flight per cache key, so
// a variant requested by several figures (or several workers) at once
// is simulated exactly once and every caller shares the result.
//
// A Session is a handle on shared state: the handles RunAll and RunOne
// give each experiment share the session's cache, journal and counters
// and additionally record the failed cells their driver reads.
type Session struct {
	Cfg Config
	*state
	// failed, when set, collects the keys of the failed cells this
	// handle's grids read: one experiment's missing-runs manifest.
	failed *[]string
}

// state is what every handle on one session shares.
type state struct {
	mu    sync.Mutex
	cache map[string]*cacheEntry

	// executed counts simulations that actually ran (cache misses) —
	// the observable the cache tests pin down. Journal replay fills
	// the cache WITHOUT touching this counter, which is how the
	// resume tests prove a completed run is never re-executed.
	executed atomic.Uint64

	// ctx, when set via WithContext, cancels in-flight and not-yet-
	// started simulations (graceful shutdown on SIGINT/SIGTERM).
	ctx context.Context

	// journal, when attached, durably records every completed run so
	// a restarted session re-executes only what is missing.
	jmu        sync.Mutex
	journal    *checkpoint.Journal
	journalErr error
	dropped    bool

	// runSim executes one simulation; tests replace it.
	runSim func(ctx context.Context, inst *workload.Instance, cfg sim.Config) (*stats.Run, error)
}

// cacheEntry is one single-flight cache slot: the first requester of a
// key owns it and runs the simulation; later requesters block on done.
type cacheEntry struct {
	done chan struct{}
	run  *stats.Run
	err  error
}

// NewSession builds a session. A zero Scale or Machine takes
// DefaultConfig's.
func NewSession(cfg Config) *Session {
	d := DefaultConfig()
	if cfg.Scale == 0 {
		cfg.Scale = d.Scale
	}
	if cfg.Machine == (sim.Config{}) {
		cfg.Machine = d.Machine
	}
	st := &state{cache: make(map[string]*cacheEntry)}
	st.runSim = func(ctx context.Context, inst *workload.Instance, cfg sim.Config) (*stats.Run, error) {
		return inst.Start(sim.New(cfg)).Run(ctx)
	}
	return &Session{Cfg: cfg, state: st}
}

// WithContext makes ctx govern every simulation the session runs:
// canceling it suspends in-flight runs (at the engine's next poll
// point) and prevents not-yet-started ones from running. Completed,
// journaled results are unaffected — a later session resumes from
// them. Returns s for chaining.
func (s *Session) WithContext(ctx context.Context) *Session {
	s.ctx = ctx
	return s
}

// context resolves the session context.
func (s *Session) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

func (s *Session) key(wl string, v variant) string {
	m := &s.Cfg.Machine
	return fmt.Sprintf("%s/%d/%d/%d/%t/%t/%t/%d/%d", wl, v.proto, v.cons, v.lease, v.forwardAll, v.oldCopy, v.adaptive, m.Mem.Fault.Seed, m.SlackCycles)
}

// do returns the cached result for key, or runs exec exactly once to
// produce it. Concurrent callers of the same key block until the
// owning call completes (single flight); errors are cached too, so a
// failing variant is not retried by every figure that shares it.
//
// The executing call is panic-isolated: a panic inside exec becomes a
// *diag.WorkerPanicError cached for this key, so one blown-up run
// fails its own cell instead of the whole process. Successful runs
// are appended to the attached journal (if any) before anyone can
// observe the result, so a kill after do returns cannot lose it.
func (s *Session) do(key string, exec func() (*stats.Run, error)) (*stats.Run, error) {
	s.mu.Lock()
	if e, ok := s.cache[key]; ok {
		s.mu.Unlock()
		<-e.done
		return e.run, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	s.cache[key] = e
	s.mu.Unlock()
	e.run, e.err = s.protect(key, exec)
	s.executed.Add(1)
	if e.err == nil {
		s.journalRun(key, e.run)
	}
	close(e.done)
	return e.run, e.err
}

// Executed reports how many simulations the session has actually run
// (cache hits excluded).
func (s *Session) Executed() uint64 { return s.executed.Load() }

// CachedRuns snapshots every completed, successful simulation keyed by
// cache key. Used by the determinism tests to compare sessions.
func (s *Session) CachedRuns() map[string]*stats.Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*stats.Run, len(s.cache))
	for k, e := range s.cache {
		select {
		case <-e.done:
			if e.err == nil {
				out[k] = e.run
			}
		default: // still in flight
		}
	}
	return out
}

// workers resolves the session's effective worker count.
func (s *Session) workers() int {
	if s.Cfg.Workers > 0 {
		return s.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// parallel fans jobs out across the session's worker pool and waits
// for them all. The first error cancels the remaining (not yet
// started) jobs and is returned — unless the session runs KeepGoing,
// in which case every job is attempted, failures stay cached per-key
// (surfacing in Missing()), and only session-context cancellation
// aborts the fan-out. With Workers=1 the jobs run inline in order.
func (s *Session) parallel(jobs []func() error) error {
	workers := s.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, job := range jobs {
			if err := s.context().Err(); err != nil {
				return context.Cause(s.context())
			}
			if err := job(); err != nil && !s.Cfg.KeepGoing {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancelCause(s.context())
	defer cancel(nil)
	feed := make(chan func() error)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range feed {
				if ctx.Err() != nil {
					continue // drain without running: a job failed
				}
				if err := job(); err != nil && !s.Cfg.KeepGoing {
					cancel(err)
				}
			}
		}()
	}
	for _, job := range jobs {
		if ctx.Err() != nil {
			break
		}
		feed <- job
	}
	close(feed)
	wg.Wait()
	return context.Cause(ctx)
}

// point is one machine the grid simulates cells on: the session's own
// machine (the zero point) or a sweep's variation of it. It renames
// the cache key (prefix and suffix around the session key) so its runs
// never alias the session machine's, sets a floor on the workload
// scale (the session's scale applies when larger), and edits the
// simulator config the session assembles.
type point struct {
	prefix, suffix string
	scale          int
	edit           func(*sim.Config)
}

// block names cells a driver reads: every workload of wls under every
// variant of vs, at one machine point.
type block struct {
	at  point
	wls []*workload.Workload
	vs  []variant
}

// cells is the block of wls under vs on the session machine.
func cells(wls []*workload.Workload, vs ...variant) block {
	return block{wls: wls, vs: vs}
}

// cell is one simulation: workload wl under variant v at point at.
type cell struct {
	at point
	wl *workload.Workload
	v  variant
}

func (s *Session) cellKey(c cell) string {
	return c.at.prefix + s.key(c.wl.Name, c.v) + c.at.suffix
}

// grid holds the runs of the cells a driver named, by cache key.
type grid struct {
	s    *Session
	runs map[string]*stats.Run
}

// at returns the run of wl under v at point p, or nil when the cell
// failed or was not run.
func (g *grid) at(p point, wl *workload.Workload, v variant) *stats.Run {
	return g.runs[g.s.cellKey(cell{p, wl, v})]
}

// run returns the run of wl under v on the session machine, or nil.
func (g *grid) run(wl *workload.Workload, v variant) *stats.Run {
	return g.at(point{}, wl, v)
}

// pairs calls f, in workload order, for every workload of wls whose
// runs under a and b at point p both completed.
func (g *grid) pairs(p point, wls []*workload.Workload, a, b variant, f func(wl *workload.Workload, a, b *stats.Run)) {
	for _, wl := range wls {
		if ra, rb := g.at(p, wl, a), g.at(p, wl, b); ra != nil && rb != nil {
			f(wl, ra, rb)
		}
	}
}

// geoRatio is the geomean of f(a run, b run) over the workloads of wls
// whose two runs on the session machine both completed.
func (g *grid) geoRatio(wls []*workload.Workload, a, b variant, f func(a, b *stats.Run) float64) float64 {
	var xs []float64
	g.pairs(point{}, wls, a, b, func(_ *workload.Workload, ra, rb *stats.Run) { xs = append(xs, f(ra, rb)) })
	return geomean(xs)
}

// cycleRatio is a's cycle count over b's.
func cycleRatio(a, b *stats.Run) float64 { return float64(a.Cycles) / float64(b.Cycles) }

// grid simulates every cell the blocks name across the worker pool and
// hands the runs back for serial assembly, which therefore never
// depends on completion order or touches a per-cell error: a partial
// figure is assembled by the same code as a full one. Each cell runs
// once per session, however many blocks or drivers name it. Without
// KeepGoing the first failure is returned before any assembly starts;
// under KeepGoing a failed cell reads back nil and its key joins this
// handle's manifest. A workload that needs coherence never runs under
// the non-coherent L1: that cell is absent, not missing, and also
// reads back nil.
func (s *Session) grid(blocks ...block) (*grid, error) {
	var cs []cell
	for _, b := range blocks {
		for _, wl := range b.wls {
			for _, v := range b.vs {
				if wl.CheckProtocol(v.proto) == nil {
					cs = append(cs, cell{b.at, wl, v})
				}
			}
		}
	}
	jobs := make([]func() error, len(cs))
	for i, c := range cs {
		jobs[i] = func() error { _, err := s.runCell(c); return err }
	}
	if err := s.parallel(jobs); err != nil {
		return nil, err
	}
	g := &grid{s: s, runs: make(map[string]*stats.Run, len(cs))}
	for _, c := range cs {
		run, err := s.runCell(c)
		if err != nil {
			if !s.Cfg.KeepGoing {
				return nil, err
			}
			if s.failed != nil {
				*s.failed = append(*s.failed, s.cellKey(c))
			}
		}
		g.runs[s.cellKey(c)] = run
	}
	return g, nil
}

// runCell simulates one cell (cached, single-flight).
func (s *Session) runCell(c cell) (*stats.Run, error) {
	return s.do(s.cellKey(c), func() (*stats.Run, error) {
		cfg := s.simConfig(c.v)
		if c.at.edit != nil {
			c.at.edit(&cfg)
		}
		run, err := s.runSim(s.context(), c.wl.Build(max(s.Cfg.Scale, c.at.scale)), cfg)
		if err != nil {
			return nil, fmt.Errorf("%s under %s/%s: %w", c.wl.Name, c.v.proto, c.v.cons, err)
		}
		return run, nil
	})
}

// simConfig is the session machine under variant v: its protocol,
// consistency and G-TSC options. The observer is left nil, since an
// observer belongs to exactly one run.
func (s *Session) simConfig(v variant) sim.Config {
	cfg := s.Cfg.Machine
	cfg.Observer = nil
	cfg.Mem.Protocol = v.proto
	cfg.SM.Consistency = v.cons
	if v.lease != 0 {
		cfg.Mem.GTSC.Lease = v.lease
	}
	cfg.Mem.GTSC.ForwardAll = v.forwardAll
	cfg.Mem.GTSC.KeepOldCopy = v.oldCopy
	cfg.Mem.GTSC.AdaptiveLease = v.adaptive
	return cfg
}

// printer is an experiment's result, which renders the paper's rows or
// series.
type printer interface{ Print(io.Writer) }

// experiment is one entry of the suite.
type experiment struct {
	name string
	run  func(*Session) (printer, error)
}

// exp makes a suite entry of a driver method.
func exp[R printer](name string, run func(*Session) (R, error)) experiment {
	return experiment{name, func(s *Session) (printer, error) { return run(s) }}
}

// suite is every experiment, in the order RunAll prints them.
var suite = []experiment{
	exp("table2", (*Session).RunTableII),
	exp("fig12", (*Session).RunFig12),
	exp("fig13", (*Session).RunFig13),
	exp("fig14", (*Session).RunFig14),
	exp("fig15", (*Session).RunFig15),
	exp("fig16", (*Session).RunFig16),
	exp("fig17", (*Session).RunFig17),
	exp("expiry", (*Session).RunExpiryMiss),
	exp("vis", (*Session).RunAblationVisibility),
	exp("combine", (*Session).RunAblationCombining),
	exp("lease", (*Session).RunAblationLease),
	exp("tso", (*Session).RunConsistencySpectrum),
	exp("scale", (*Session).RunScalability),
	exp("micro", (*Session).RunMicroTable),
	exp("platform", (*Session).RunPlatform),
	exp("cache", (*Session).RunCacheSweep),
	exp("dir", (*Session).RunDirectoryCompare),
}

// RunAll executes every experiment and prints each in order — the
// cmd/gtscbench entry point.
func (s *Session) RunAll(w io.Writer) error {
	m := &s.Cfg.Machine.Mem
	fmt.Fprintf(w, "G-TSC experiment suite (scale %d, %d SMs, %d L2 banks, G-TSC lease %d, TC lease %d)\n\n",
		s.Cfg.Scale, m.NumSMs, m.NumBanks, m.GTSC.Lease, m.TC.Lease)
	for _, e := range suite {
		if err := s.runExperiment(e, w); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunOne executes a single named experiment ("table2", "fig12" ...
// "dir") and prints it.
func (s *Session) RunOne(name string, w io.Writer) error {
	names := make([]string, len(suite))
	for i, e := range suite {
		if e.name == name {
			return s.runExperiment(e, w)
		}
		names[i] = e.name
	}
	return fmt.Errorf("unknown experiment %q (want %s)", name, strings.Join(names, ", "))
}

// runExperiment runs one experiment on a handle that records the
// failed cells its driver reads, prints the result, then the manifest
// of those cells (KeepGoing partial output).
func (s *Session) runExperiment(e experiment, w io.Writer) error {
	var failed []string
	res, err := e.run(&Session{Cfg: s.Cfg, state: s.state, failed: &failed})
	if err != nil {
		return err
	}
	res.Print(w)
	printMissing(w, sortedStrings(failed))
	return nil
}

// printMissing renders the missing-runs manifest of a partial figure
// or table (no output when nothing is missing).
func printMissing(w io.Writer, missing []string) {
	if len(missing) == 0 {
		return
	}
	fmt.Fprintf(w, "PARTIAL OUTPUT: %d run(s) failed and are omitted above:\n", len(missing))
	for _, k := range missing {
		fmt.Fprintf(w, "  missing %s\n", k)
	}
}

// geomean returns the geometric mean of xs (1.0 for empty input).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// names extracts workload names in order.
func names(ws []*workload.Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// table is a small helper for aligned text output.
type table struct {
	w *tabwriter.Writer
}

func newTable(out io.Writer) *table {
	return &table{w: tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.w, "\t")
		}
		fmt.Fprint(t.w, c)
	}
	fmt.Fprintln(t.w)
}

func (t *table) flush() { t.w.Flush() }

// sortedKeys returns map keys in sorted order (deterministic printing).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
