// Command gtscsim runs one or more benchmarks on one simulated GPU
// configuration and reports their statistics — the single-run entry
// point of the simulator.
//
// Usage:
//
//	gtscsim -workload CC -protocol gtsc -consistency rc -sms 16 -banks 8
//	gtscsim -workload BH,CC,STN -j 4     # several workloads in parallel
//	gtscsim -workload all -j 0           # every workload, GOMAXPROCS workers
//	gtscsim -workload CC -slack 32 -simworkers 2   # relaxed sync, 2 SM-domain workers
//	gtscsim -list
//	gtscsim -workload BFS -protocol tc -check
//	gtscsim -workload CC -cpuprofile cpu.pprof -memprofile mem.pprof
//	gtscsim -workload CC -checkpoint CC.ckpt            # killable: ^C writes a checkpoint
//	gtscsim -workload CC -checkpoint CC.ckpt -resume    # continue a killed run
//	gtscsim -workload CC -timeout 30s                   # bound wall-clock time
//
// Protocols: gtsc (the paper's contribution), tc (Temporal Coherence;
// TC-Weak under rc, TC-Strong under sc), bl (no L1 — the paper's
// baseline), l1nc (non-coherent L1; only valid for the second
// benchmark set).
//
// Exit status: 0 on success, 1 on failure, 3 when the run was
// interrupted (signal or -timeout) and suspended gracefully, 130 when
// a second signal forced an immediate abort.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/checkpoint"
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
// so wrappers and CI can tell "killed mid-run, resumable" apart from
// "broken".
const (
	exitOK          = cli.ExitOK
	exitFailure     = cli.ExitFailure
	exitInterrupted = cli.ExitInterrupted
)

func main() { os.Exit(realMain()) }

// clampSimWorkers resolves -simworkers against the multi-workload
// worker count: each worker drives its own simulation, so the
// goroutine budget is jobs*simworkers. The product is clamped to
// 2*GOMAXPROCS — results are identical at any setting, so the clamp
// only bounds scheduler oversubscription, never changes output.
func clampSimWorkers(jobs, simw int) int {
	maxprocs := runtime.GOMAXPROCS(0)
	if jobs <= 0 {
		jobs = maxprocs
	}
	if simw <= 0 {
		simw = maxprocs
	}
	if budget := 2 * maxprocs; jobs*simw > budget {
		simw = budget / jobs
	}
	if simw < 1 {
		simw = 1
	}
	return simw
}

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
		simw     = flag.Int("simworkers", 1, "SM-domain workers inside each simulation under -slack (0 = GOMAXPROCS); with multi-workload -j the goroutine budget is j*simworkers, clamped to 2*GOMAXPROCS; output is identical at any setting")
		slack    = flag.Uint64("slack", 0, "relaxed-synchronization bound in cycles: domains free-run up to this many cycles between epoch barriers (0 = bit-exact). Nonzero slack perturbs cycle counts boundedly; functional results are preserved. Ignored under -faultseed")

		maxCycles = flag.Uint64("maxcycles", 0, "hard per-kernel cycle budget (0 = default 200M)")
		watchdog  = flag.Uint64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default 100k)")
		wdOff     = flag.Bool("watchdog-off", false, "disable the forward-progress watchdog (MaxCycles still applies)")
		faultSeed = flag.Int64("faultseed", 0, "enable the chaos fault-injection plan with this seed (0 = off)")

		timeout = flag.Duration("timeout", 0, "bound wall-clock time; on expiry the run suspends gracefully and exits 3")
		ckpt    = flag.String("checkpoint", "", "checkpoint file: an interrupted run writes its resume coordinate here (single workload only)")
		resume  = flag.Bool("resume", false, "resume from -checkpoint if it exists (verified deterministic replay)")

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
			wl, ok := workload.ByName(n)
			if !ok {
				wl, ok = workload.MicroByName(n)
			}
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
	switch *sched {
	case "lrr":
		cfg.SM.Scheduler = gpu.LRR
	case "gto":
		cfg.SM.Scheduler = gpu.GTO
	default:
		fatalf("unknown scheduler %q", *sched)
	}
	switch *proto {
	case "gtsc":
		cfg.Mem.Protocol = memsys.GTSC
		if *lease != 0 {
			cfg.Mem.GTSC.Lease = *lease
		}
	case "tc":
		cfg.Mem.Protocol = memsys.TC
		if *lease != 0 {
			cfg.Mem.TC.Lease = *lease
		}
	case "bl":
		cfg.Mem.Protocol = memsys.BL
	case "l1nc":
		cfg.Mem.Protocol = memsys.L1NC
		for _, wl := range wls {
			if wl.NeedsCoherence {
				fatalf("workload %s requires coherence and is not runnable under l1nc", wl.Name)
			}
		}
	case "dir":
		cfg.Mem.Protocol = memsys.DIR
	default:
		fatalf("unknown protocol %q", *proto)
	}
	switch *cons {
	case "rc":
		cfg.SM.Consistency = gpu.RC
	case "sc":
		cfg.SM.Consistency = gpu.SC
	case "tso":
		cfg.SM.Consistency = gpu.TSO
	default:
		fatalf("unknown consistency %q", *cons)
	}

	cfg.MaxCycles = *maxCycles
	cfg.WatchdogWindow = *watchdog
	cfg.DisableWatchdog = *wdOff
	cfg.SlackCycles = *slack
	if *faultSeed != 0 {
		cfg.Mem.Fault = fault.Chaos(*faultSeed)
		fmt.Printf("fault plan: %s\n", cfg.Mem.Fault)
	}

	// Cancellation: -timeout bounds wall-clock time; the first
	// SIGINT/SIGTERM suspends the run gracefully (stats flushed, the
	// checkpoint written) and exits 3; a second signal aborts
	// immediately with 130.
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

	if *ckpt != "" {
		if len(wls) != 1 {
			fatalf("-checkpoint tracks a single execution; run one workload (got %d)", len(wls))
		}
		cfg.SimWorkers = clampSimWorkers(1, *simw)
		return runCheckpointed(ctx, wls[0], cfg, *scale, *ckpt, *resume)
	}

	// Run the workloads, fanning out across -j workers when several were
	// requested. Each run builds a fresh simulator from a copy of cfg
	// and — when checking — its own check.Recorder: observers record
	// per-run operation streams and must never be shared between
	// concurrently running simulations.
	type result struct {
		run *stats.Run
		rec *check.Recorder
		eng *sim.EngineStats
		err error
	}
	results := make([]result, len(wls))
	workers := *jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(wls) {
		workers = len(wls)
	}
	cfg.SimWorkers = clampSimWorkers(workers, *simw)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, wl := range wls {
		wg.Add(1)
		go func(i int, wl *workload.Workload) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runCfg := cfg
			if *doCheck {
				results[i].rec = check.NewRecorder()
				runCfg.Observer = results[i].rec
			}
			s := sim.New(runCfg)
			results[i].run, results[i].err = wl.Build(*scale).RunOnContext(ctx, s)
			results[i].eng = s.Engine()
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
			// Structured failures carry a machine-state dump; print it so a
			// wedged run is diagnosable from the terminal alone. An
			// interruption is not a failure: report where the run stopped
			// and exit with the distinct status below.
			var ce *diag.CanceledError
			var de *diag.DeadlockError
			var pe *diag.ProtocolError
			switch {
			case errors.As(res.err, &ce):
				fmt.Fprintf(os.Stderr, "gtscsim: %s interrupted at cycle %d (%s, kernel %s): %v\n",
					wl.Name, ce.Cycle, ce.Phase, ce.Kernel, ce.Cause)
				fmt.Fprintln(os.Stderr, "gtscsim: no -checkpoint given; partial state discarded")
				interrupted = true
				continue
			case errors.As(res.err, &de):
				fmt.Fprintln(os.Stderr, de.Dump.String())
			case errors.As(res.err, &pe):
				fmt.Fprintln(os.Stderr, pe.Dump.String())
			}
			fmt.Fprintf(os.Stderr, "gtscsim: %s failed: %v\n", wl.Name, res.err)
			failed = true
			continue
		}
		fmt.Print(res.run)
		if eng := res.eng; eng != nil {
			printEngineLine(eng)
		}
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

// runCheckpointed executes one workload through the checkpoint layer:
// an interruption (signal or timeout) suspends the machine, writes its
// resume coordinate to path and exits 3; a later -resume invocation
// rebuilds the exact machine by verified deterministic replay and
// continues. Results are bit-identical however many times the run is
// killed and resumed.
func runCheckpointed(ctx context.Context, wl *workload.Workload, cfg sim.Config, scale int, path string, resume bool) int {
	inst := wl.Build(scale)
	var e *checkpoint.Execution
	if resume {
		switch ck, err := checkpoint.LoadFile(path); {
		case err == nil:
			start := time.Now()
			e, err = checkpoint.ResumeExecution(ck, cfg, inst, wl.Name, scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gtscsim: resume: %v\n", err)
				return exitFailure
			}
			fmt.Printf("resumed %s at cycle %d (%s, %d kernels done; replay digest verified in %v)\n",
				wl.Name, ck.Cycle, ck.Phase, ck.KernelIndex, time.Since(start).Round(time.Millisecond))
		case errors.Is(err, os.ErrNotExist):
			fmt.Printf("no checkpoint at %s; starting %s from cycle 0\n", path, wl.Name)
			e = checkpoint.NewExecution(cfg, inst, wl.Name, scale)
		default:
			fmt.Fprintf(os.Stderr, "gtscsim: resume: %v\n", err)
			return exitFailure
		}
	} else {
		e = checkpoint.NewExecution(cfg, inst, wl.Name, scale)
	}

	run, err := e.Run(ctx)
	if err != nil {
		var ce *diag.CanceledError
		if errors.As(err, &ce) {
			ck := e.Checkpoint()
			if serr := ck.SaveFile(path); serr != nil {
				fmt.Fprintf(os.Stderr, "gtscsim: interrupted, but checkpoint save failed: %v\n", serr)
				return exitFailure
			}
			fmt.Fprintf(os.Stderr, "gtscsim: %s interrupted at cycle %d (%s, kernel %s): %v\n",
				wl.Name, ce.Cycle, ce.Phase, ce.Kernel, ce.Cause)
			fmt.Fprintf(os.Stderr, "gtscsim: checkpoint written to %s; rerun with -resume to continue\n", path)
			return exitInterrupted
		}
		var de *diag.DeadlockError
		var pe *diag.ProtocolError
		switch {
		case errors.As(err, &de):
			fmt.Fprintln(os.Stderr, de.Dump.String())
		case errors.As(err, &pe):
			fmt.Fprintln(os.Stderr, pe.Dump.String())
		}
		fmt.Fprintf(os.Stderr, "gtscsim: %s failed: %v\n", wl.Name, err)
		return exitFailure
	}
	fmt.Print(run)
	printEngineLine(e.Sim().Engine())
	// The run completed; a stale checkpoint would otherwise replay a
	// finished execution on the next -resume.
	os.Remove(path)
	return exitOK
}

// printEngineLine reports the engine's scheduling counters for one run.
// mode and simworkers are the EFFECTIVE values (fault injection
// disengages -slack; -simworkers clamps to GOMAXPROCS and only applies
// under -slack). executed/skipped split the simulated cycles by whether
// the engine ticked them or fast-forwarded over them; dispatches break
// the executed work into hierarchy and SM evaluations — sleeping SMs
// are never dispatched, so sm_ticks stays far below executed*numSMs on
// stall-heavy workloads.
func printEngineLine(eng *sim.EngineStats) {
	executed := eng.RunCycles + eng.DrainCycles
	fmt.Printf("engine: mode=%s simworkers=%d executed=%d skipped=%d (windows %d, mean width %.1f) dispatches=%d (hierarchy %d + sm %d) sm_sleep_cycles=%d sm_wakes=%d\n",
		eng.Mode(), eng.Workers, executed, eng.SkippedCycles(), eng.SkipWindows, eng.MeanSkipWidth(),
		eng.Dispatches(), eng.EventCycles, eng.SMTicks, eng.SMSleepCycles, eng.SMWakes)
	// Per-component dispatch breakdown: of the hierarchy dispatches
	// above, which component Ticks actually ran vs slept.
	// Relaxed-sync breakdown (only when -slack engaged): epoch count,
	// how the domains spent the windows (executed vs skipped domain
	// cycles), and the barrier NoC replay's traffic.
	if r := &eng.Relaxed; r.Epochs > 0 {
		fmt.Printf("engine: relaxed slack=%d epochs=%d sm_domain_cycles=%d/%d skipped mem_domain_cycles=%d/%d skipped exchanged=%d held=%d\n",
			r.SlackCycles, r.Epochs,
			r.SMDomainCycles, r.SMDomainSkipped,
			r.MemDomainCycles, r.MemDomainSkipped,
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
	switch cfg.Mem.Protocol {
	case memsys.GTSC:
		violations = check.CheckTimestampOrder(rec.Ops(), 10)
	case memsys.BL, memsys.DIR:
		violations = check.CheckPhysical(rec.Ops(), 10)
	case memsys.TC:
		if cfg.SM.Consistency == gpu.SC {
			violations = check.CheckPhysical(rec.Ops(), 10)
		} else {
			fmt.Println("checker: TC-Weak permits bounded staleness; only functional verification applies")
		}
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
