// Package experiments regenerates every table and figure of the
// paper's evaluation (Section VI) over the simulator: Table II and
// Figs 12–17, the §VI-E expiry-miss characterization, and the §V
// ablations. Each driver returns structured results and can print the
// same rows/series the paper reports.
//
// Runs are cached per (workload, protocol, consistency, option)
// within a Session, since most figures share the same underlying
// simulations.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"github.com/gtsc-sim/gtsc/internal/checkpoint"
	"github.com/gtsc-sim/gtsc/internal/fault"
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
	// NumSMs/NumBanks describe the machine (paper: 16 and 8).
	NumSMs   int
	NumBanks int
	// GTSCLease is G-TSC's logical lease (paper default 10).
	GTSCLease uint64
	// GTSCTSBits is G-TSC's timestamp counter width in bits (0 = the
	// protocol default, 16). Narrow widths make the §V-D overflow
	// reset a routine event instead of a once-per-billion-cycles one,
	// so sweeps can characterize rollover cost. Result-affecting: part
	// of the journal config signature.
	GTSCTSBits int
	// TCLease is TC's physical lease in cycles (default 400).
	TCLease uint64
	// MaxCycles guards against non-convergence.
	MaxCycles uint64
	// Workers bounds how many simulations the session runs
	// concurrently when a driver fans out its grid (0 = GOMAXPROCS,
	// 1 = fully serial). Every simulation is hermetic — fresh
	// simulator, store, RNG and observer per run — so the results are
	// bit-identical for any worker count; only wall-clock time changes.
	Workers int
	// SimWorkers is the INTRA-simulation parallelism handed to each
	// run (sim.Config.SimWorkers): under a nonzero Slack, the SM
	// domains of one simulation run concurrently on that many
	// goroutines. Like Workers it is a pure scheduling knob — results
	// and journals are identical at any setting — and it multiplies: a
	// fan-out uses up to Workers x SimWorkers goroutines, so keep the
	// product near GOMAXPROCS (the CLIs clamp it; see EXPERIMENTS.md).
	SimWorkers int
	// Slack is each run's relaxed-synchronization bound in cycles
	// (sim.Config.SlackCycles; 0 = bit-exact execution). Unlike
	// SimWorkers this is NOT a pure scheduling knob: nonzero slack
	// perturbs cycle counts boundedly (functional results are
	// preserved — see sim/relaxed.go), so it is part of the cache key
	// and of the journal's config signature, and slack-0 results are
	// never served for a slack-N request.
	Slack uint64

	// FaultSeed, when non-zero, runs every simulation under the chaos
	// fault-injection plan with that seed (see internal/fault). Runs
	// stay deterministic per seed; the seed is part of the cache key
	// and of the journal's config signature.
	FaultSeed int64
	// RetryTransient bounds how many times a transient fault-injected
	// failure (a deadlock while a fault plan is active) is retried.
	// Each attempt derives a fresh fault seed — the simulator is
	// deterministic, so retrying the same seed would reproduce the
	// same failure — and waits exponentially longer before rerunning.
	// 0 disables retry.
	RetryTransient int
	// KeepGoing makes a sweep survive individual run failures: a
	// failed (workload, variant) cell no longer aborts the driver;
	// figure/table assembly skips the missing cells and reports them
	// in the result's Missing manifest (see also Session.Missing).
	KeepGoing bool
	// WatchdogWindow overrides each simulation's forward-progress
	// window in simulated cycles (0 = simulator default). The window
	// counts simulated cycles only, so oversubscribed worker pools
	// (Workers > GOMAXPROCS) cannot trip it; TestWatchdogOversubscribed
	// pins that.
	WatchdogWindow uint64
}

// DefaultConfig returns the paper-scale machine at scale 2.
func DefaultConfig() Config {
	return Config{Scale: 2, NumSMs: 16, NumBanks: 8, GTSCLease: 10, TCLease: 400}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.Scale == 0 {
		c.Scale = d.Scale
	}
	if c.NumSMs == 0 {
		c.NumSMs = d.NumSMs
	}
	if c.NumBanks == 0 {
		c.NumBanks = d.NumBanks
	}
	if c.GTSCLease == 0 {
		c.GTSCLease = d.GTSCLease
	}
	if c.TCLease == 0 {
		c.TCLease = d.TCLease
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 500_000_000
	}
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
type Session struct {
	Cfg Config

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

	// Test seams: sleep backs the retry backoff; runSim executes one
	// simulation. Both default to the real thing in NewSession.
	sleep  func(time.Duration)
	runSim func(ctx context.Context, inst *workload.Instance, cfg sim.Config) (*stats.Run, error)
}

// cacheEntry is one single-flight cache slot: the first requester of a
// key owns it and runs the simulation; later requesters block on done.
type cacheEntry struct {
	done chan struct{}
	run  *stats.Run
	err  error
}

// NewSession builds a session.
func NewSession(cfg Config) *Session {
	cfg.fillDefaults()
	s := &Session{Cfg: cfg, cache: make(map[string]*cacheEntry), sleep: time.Sleep}
	s.runSim = func(ctx context.Context, inst *workload.Instance, cfg sim.Config) (*stats.Run, error) {
		return inst.RunContext(ctx, cfg)
	}
	return s
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
	return fmt.Sprintf("%s/%d/%d/%d/%t/%t/%t/%d/%d", wl, v.proto, v.cons, v.lease, v.forwardAll, v.oldCopy, v.adaptive, s.Cfg.FaultSeed, s.Cfg.Slack)
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
// Jobs route results through do(), so this is only ever a prewarm:
// drivers re-read the cache serially afterwards, which makes result
// assembly independent of completion order.
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

// gridJobs builds one prewarm job per (workload, variant) pair.
func (s *Session) gridJobs(wls []*workload.Workload, vs ...variant) []func() error {
	jobs := make([]func() error, 0, len(wls)*len(vs))
	for _, wl := range wls {
		for _, v := range vs {
			wl, v := wl, v
			jobs = append(jobs, func() error { _, err := s.run(wl, v); return err })
		}
	}
	return jobs
}

// prewarmGrid simulates every (workload, variant) pair across the
// worker pool so the driver's serial assembly loop below it only takes
// cache hits.
func (s *Session) prewarmGrid(wls []*workload.Workload, vs ...variant) error {
	return s.parallel(s.gridJobs(wls, vs...))
}

// run simulates workload wl under variant v (cached, single-flight).
// Transient fault-injected failures are retried up to
// Cfg.RetryTransient times with exponential backoff; each attempt
// derives a fresh fault seed, because the deterministic engine would
// otherwise reproduce the identical failure.
func (s *Session) run(wl *workload.Workload, v variant) (*stats.Run, error) {
	return s.do(s.key(wl.Name, v), func() (*stats.Run, error) {
		var lastErr error
		for attempt := 0; attempt <= s.Cfg.RetryTransient; attempt++ {
			if attempt > 0 {
				s.sleep(RetryBackoff(attempt))
			}
			run, err := s.runSim(s.context(), wl.Build(s.Cfg.Scale), s.simConfig(v, attempt))
			if err == nil {
				return run, nil
			}
			lastErr = fmt.Errorf("%s under %s/%s (attempt %d): %w", wl.Name, v.proto, v.cons, attempt+1, err)
			if !s.transient(err) {
				break
			}
		}
		return nil, lastErr
	})
}

// simConfig assembles the simulator configuration for one attempt of
// one variant. The attempt index only varies the derived fault seed;
// with fault injection off every attempt is identical (and there is
// only ever one).
func (s *Session) simConfig(v variant, attempt int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = v.proto
	cfg.Mem.NumSMs = s.Cfg.NumSMs
	cfg.Mem.NumBanks = s.Cfg.NumBanks
	cfg.SM.Consistency = v.cons
	cfg.MaxCycles = s.Cfg.MaxCycles
	cfg.WatchdogWindow = s.Cfg.WatchdogWindow
	cfg.SimWorkers = s.Cfg.SimWorkers
	cfg.SlackCycles = s.Cfg.Slack
	cfg.Mem.GTSC.Lease = s.Cfg.GTSCLease
	cfg.Mem.GTSC.TSBits = s.Cfg.GTSCTSBits
	cfg.Mem.TC.Lease = s.Cfg.TCLease
	if v.lease != 0 {
		cfg.Mem.GTSC.Lease = v.lease
	}
	cfg.Mem.GTSC.ForwardAll = v.forwardAll
	cfg.Mem.GTSC.KeepOldCopy = v.oldCopy
	cfg.Mem.GTSC.AdaptiveLease = v.adaptive
	if s.Cfg.FaultSeed != 0 {
		cfg.Mem.Fault = fault.Chaos(DeriveFaultSeed(s.Cfg.FaultSeed, attempt))
	}
	return cfg
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
