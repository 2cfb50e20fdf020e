// Command gtscsim runs one or more benchmarks on one simulated GPU
// configuration and reports their statistics — the single-run entry
// point of the simulator.
//
// Usage:
//
//	gtscsim -workload CC -protocol gtsc -consistency rc -sms 16 -banks 8
//	gtscsim -workload BH,CC,STN -j 4     # several workloads in parallel
//	gtscsim -workload all -j 0           # every workload, GOMAXPROCS workers
//	gtscsim -workload CC -slack 32       # relaxed sync, 32-cycle epochs
//	gtscsim -list
//	gtscsim -workload BFS -protocol tc -check
//	gtscsim -workload CC -cpuprofile cpu.pprof -memprofile mem.pprof
//	gtscsim -workload CC -timeout 30s    # bound wall-clock time
//
// Protocols: gtsc (the paper's contribution), tc (Temporal Coherence;
// TC-Weak under rc, TC-Strong under sc), bl (no L1 — the paper's
// baseline), l1nc (non-coherent L1; only valid for the second
// benchmark set).
//
// Exit status: 0 on success, 1 on failure, 3 when the run was
// interrupted (signal or -timeout) and stopped gracefully, 130 when a
// second signal forced an immediate abort. An interrupted run is not
// resumable: rerun it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/cli"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// Exit codes (shared across binaries; see internal/cli). A graceful
// interruption (signal or timeout) is distinguishable from a failure,
// so wrappers and CI can tell "killed mid-run" apart from "broken".
const (
	exitOK          = cli.ExitOK
	exitFailure     = cli.ExitFailure
	exitInterrupted = cli.ExitInterrupted
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name     = flag.String("workload", "CC", "workload name, comma-separated list, or \"all\" (see -list)")
		proto    = flag.String("protocol", "gtsc", "coherence protocol: gtsc, tc, bl, l1nc, dir")
		cons     = flag.String("consistency", "rc", "memory consistency model: rc, sc, tso")
		scale    = flag.Int("scale", 1, "workload scale factor")
		sms      = flag.Int("sms", 16, "number of SMs")
		banks    = flag.Int("banks", 8, "number of L2 banks / DRAM partitions")
		lease    = flag.Uint64("lease", 0, "protocol lease (0 = default: 10 logical for gtsc, 400 cycles for tc)")
		tsBits   = flag.Int("tsbits", 16, "G-TSC timestamp width in bits")
		adaptive = flag.Bool("adaptive-lease", false, "G-TSC adaptive per-block lease policy (extension)")
		sched    = flag.String("scheduler", "lrr", "warp scheduler: lrr, gto")
		doCheck  = flag.Bool("check", false, "verify protocol invariants with the operation checker")
		list     = flag.Bool("list", false, "list workloads and exit")
		jobs     = flag.Int("j", 1, "workers for multi-workload runs (0 = GOMAXPROCS); each run is hermetic, so output is identical at any -j")
		slack    = flag.Uint64("slack", 0, "relaxed-synchronization bound in cycles: domains free-run up to this many cycles between epoch barriers (0 = bit-exact). Nonzero slack perturbs cycle counts boundedly; functional results are preserved. Ignored under -faultseed")

		maxCycles = flag.Uint64("maxcycles", 0, "hard per-kernel cycle budget (0 = default 200M)")
		watchdog  = flag.Uint64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default 100k)")
		wdOff     = flag.Bool("watchdog-off", false, "disable the forward-progress watchdog (MaxCycles still applies)")
		faultSeed = flag.Int64("faultseed", 0, "enable the chaos fault-injection plan with this seed (0 = off)")

		timeout = flag.Duration("timeout", 0, "bound wall-clock time; on expiry the run stops gracefully and exits 3")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulation(s) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the simulation(s) to this file")
	)
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			coh := " "
			if w.NeedsCoherence {
				coh = "*"
			}
			fmt.Printf("%s %-5s %s\n", coh, w.Name, w.Description)
		}
		fmt.Println("microbenchmarks:")
		for _, w := range workload.Micro() {
			coh := " "
			if w.NeedsCoherence {
				coh = "*"
			}
			fmt.Printf("%s %-5s %s\n", coh, w.Name, w.Description)
		}
		fmt.Println("(* requires coherence; not runnable under -protocol l1nc)")
		return exitOK
	}

	var wls []*workload.Workload
	if *name == "all" {
		wls = workload.All()
	} else {
		for _, n := range strings.Split(*name, ",") {
			n = strings.TrimSpace(n)
			wl, ok := workload.Lookup(n)
			if !ok {
				fatalf("unknown workload %q; try -list", n)
			}
			wls = append(wls, wl)
		}
	}

	cfg := sim.DefaultConfig()
	cfg.Mem.NumSMs = *sms
	cfg.Mem.NumBanks = *banks
	cfg.Mem.GTSC.TSBits = *tsBits
	cfg.Mem.GTSC.AdaptiveLease = *adaptive
	var err error
	if cfg.SM.Scheduler, err = gpu.ParseScheduler(*sched); err != nil {
		fatalf("%v", err)
	}
	if cfg.Mem.Protocol, err = memsys.ParseProtocol(*proto); err != nil {
		fatalf("%v", err)
	}
	switch cfg.Mem.Protocol {
	case memsys.GTSC:
		if *lease != 0 {
			cfg.Mem.GTSC.Lease = *lease
		}
	case memsys.TC:
		if *lease != 0 {
			cfg.Mem.TC.Lease = *lease
		}
	}
	for _, wl := range wls {
		if err := wl.CheckProtocol(cfg.Mem.Protocol); err != nil {
			fatalf("%v", err)
		}
	}
	if cfg.SM.Consistency, err = gpu.ParseConsistency(*cons); err != nil {
		fatalf("%v", err)
	}

	cfg.MaxCycles = *maxCycles
	cfg.WatchdogWindow = *watchdog
	if *wdOff {
		cfg.WatchdogWindow = math.MaxUint64
	}
	cfg.SlackCycles = *slack
	if *faultSeed != 0 {
		cfg.Mem.Fault = fault.Chaos(*faultSeed)
		fmt.Printf("fault plan: %s\n", cfg.Mem.Fault)
	}

	// Cancellation: -timeout bounds wall-clock time; the first
	// SIGINT/SIGTERM stops the run gracefully (it reports the cycle it
	// reached) and exits 3; a second signal aborts immediately with 130.
	ctx := context.Background()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}
	ctx, stop := cli.WithSignals(ctx, "gtscsim")
	defer stop()

	if *cpuProfile != "" {
		// Label the engine's phases so the profile splits hierarchy tick,
		// SM tick and agenda overhead without manual stack bisection:
		// `go tool pprof -tagfocus engine_phase=hierarchy-tick cpu.pprof`.
		cfg.ProfileLabels = true
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Run the workloads, fanning out across -j workers when several were
	// requested. Each run builds a fresh simulator from a copy of cfg
	// and — when checking — its own check.Recorder: observers record
	// per-run operation streams and must never be shared between
	// concurrently running simulations.
	type result struct {
		exec *workload.Execution
		run  *stats.Run
		rec  *check.Recorder
		err  error
	}
	results := make([]result, len(wls))
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, wl := range wls {
		wg.Add(1)
		go func(i int, wl *workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := &results[i]
			runCfg := cfg
			if *doCheck {
				res.rec = check.NewRecorder()
				runCfg.Observer = res.rec
			}
			res.exec = wl.Build(*scale).Start(sim.New(runCfg))
			res.run, res.err = res.exec.Run(ctx)
		}(i, wl)
	}
	wg.Wait()

	failed, interrupted := false, false
	for i, wl := range wls {
		res := results[i]
		if len(wls) > 1 {
			fmt.Printf("==== %s ====\n", wl.Name)
		}
		if res.err != nil {
			// An interruption is not a failure: report where the run
			// stopped and exit with the distinct status below.
			var ce *diag.CanceledError
			if errors.As(res.err, &ce) {
				fmt.Fprintf(os.Stderr, "gtscsim: %s interrupted at cycle %d (%s, kernel %s): %v\n",
					wl.Name, ce.Cycle, ce.Phase, ce.Kernel, ce.Cause)
				interrupted = true
				continue
			}
			reportFailure(wl.Name, res.err)
			failed = true
			continue
		}
		fmt.Print(res.run)
		printEngineLine(res.exec.Sim().Engine())
		if res.rec != nil && !reportChecker(cfg, res.rec) {
			failed = true
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC() // up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
	}

	switch {
	case failed:
		return exitFailure
	case interrupted:
		return exitInterrupted
	}
	return exitOK
}

// reportFailure prints a failed run's machine-state dump, when the
// failure carries one (a deadlock or a protocol error), so a wedged run
// is diagnosable from the terminal alone, then its failed: line.
func reportFailure(name string, err error) {
	var de *diag.DeadlockError
	var pe *diag.ProtocolError
	switch {
	case errors.As(err, &de):
		fmt.Fprintln(os.Stderr, de.Dump.String())
	case errors.As(err, &pe):
		fmt.Fprintln(os.Stderr, pe.Dump.String())
	}
	fmt.Fprintf(os.Stderr, "gtscsim: %s failed: %v\n", name, err)
}

// printEngineLine reports the engine's scheduling counters for one run.
// mode is the EFFECTIVE engine (fault injection disengages -slack).
// executed/skipped split the simulated cycles by whether the engine
// ticked them or fast-forwarded over them; dispatches break the
// executed work into hierarchy and SM evaluations — sleeping SMs are
// never dispatched, so sm_ticks stays far below executed*numSMs on
// stall-heavy workloads.
func printEngineLine(eng *sim.EngineStats) {
	executed := eng.RunCycles + eng.DrainCycles
	fmt.Printf("engine: mode=%s executed=%d skipped=%d (windows %d, mean width %.1f) dispatches=%d (hierarchy %d + sm %d) sm_sleep_cycles=%d sm_wakes=%d\n",
		eng.Mode(), executed, eng.SkippedCycles(), eng.SkipWindows, eng.MeanSkipWidth(),
		eng.Dispatches(), eng.EventCycles, eng.SMTicks, eng.SMSleepCycles, eng.SMWakes)
	// Per-component dispatch breakdown: which component Ticks actually
	// ran vs slept, on event cycles and in relaxed barrier replays.
	// Relaxed-sync breakdown (only when -slack engaged): epoch count,
	// how the SM domains spent the windows (executed vs skipped domain
	// cycles), and the barrier NoC replay's traffic; the replay's
	// shared-side dispatch is in the hierarchy line below.
	if r := &eng.Relaxed; r.Epochs > 0 {
		fmt.Printf("engine: relaxed slack=%d epochs=%d sm_domain_cycles=%d/%d skipped exchanged=%d held=%d\n",
			r.SlackCycles, r.Epochs,
			r.SMDomainCycles, r.SMDomainSkipped,
			r.ExchangedMsgs, r.HeldMsgs)
	}
	c := &eng.Comp
	if total := c.HierarchyTicks() + c.HierarchySleeps(); total > 0 {
		fmt.Printf("engine: hierarchy dispatch (ticks/sleeps): noc %d/%d dram %d/%d l2 %d/%d l1 %d/%d, sleep fraction %.2f\n",
			c.NoCTicks, c.NoCSleeps, c.DRAMTicks, c.DRAMSleeps,
			c.L2Ticks, c.L2Sleeps, c.L1Ticks, c.L1Sleeps,
			float64(c.HierarchySleeps())/float64(total))
	}
}

// reportChecker prints the invariant-checker verdict for one run and
// reports whether it passed.
func reportChecker(cfg sim.Config, rec *check.Recorder) bool {
	loads, stores := check.Summary(rec.Ops())
	fmt.Printf("checker: %d loads, %d stores observed\n", loads, stores)
	var violations []check.Violation
	switch order := cfg.Ordering(); {
	case order != nil:
		violations = order(rec.Ops(), 10)
	case cfg.Mem.Protocol == memsys.TC:
		fmt.Println("checker: TC-Weak permits bounded staleness; only functional verification applies")
	default:
		fmt.Println("checker: no ordering invariant applies to this configuration")
	}
	for _, v := range violations {
		fmt.Println("VIOLATION:", v.Error())
	}
	if len(violations) == 0 {
		fmt.Println("checker: no ordering violations")
		return true
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtscsim: "+format+"\n", args...)
	os.Exit(1)
}
