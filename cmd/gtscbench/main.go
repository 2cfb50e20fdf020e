// Command gtscbench regenerates the paper's evaluation: Table II,
// Figures 12–17, the §VI-E expiry-miss characterization, and the §V
// design ablations, printing the same rows and series the paper
// reports (normalized to the same baselines).
//
// Usage:
//
//	gtscbench                  # full suite at paper scale
//	gtscbench -exp fig12       # one experiment
//	gtscbench -exp lease       # an extension (lease, tso, scale, micro, platform, cache, dir)
//	gtscbench -scale 1 -sms 8  # smaller machine / inputs
//	gtscbench -j 8             # fan simulations across 8 workers
//	gtscbench -slack 32 -j 1 -simworkers 2  # relaxed sync, 2 SM-domain workers per simulation
//	gtscbench -journal sweep.jrnl       # crash-safe: rerun with the same journal to resume
//	gtscbench -timeout 10m              # bound wall-clock time (suspends gracefully)
//	gtscbench -keep-going               # survive per-run failures; print partial figures
//
// A sweep run with -journal survives kill -9: every completed
// simulation is fsynced to the journal before its result is used, and
// rerunning the same command replays the journal and re-executes only
// the missing runs. SIGINT/SIGTERM suspend the sweep gracefully (exit
// 3); a second signal aborts immediately (exit 130).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/gtsc-sim/gtsc/internal/cli"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/experiments"
	"github.com/gtsc-sim/gtsc/internal/fault"
)

// Exit codes (shared across binaries; see internal/cli).
const (
	exitOK          = cli.ExitOK
	exitFailure     = cli.ExitFailure
	exitInterrupted = cli.ExitInterrupted
)

func main() { os.Exit(realMain()) }

func realMain() int {
	cfg := experiments.DefaultConfig()
	m := &cfg.Machine
	flag.IntVar(&cfg.Scale, "scale", cfg.Scale, "workload scale factor")
	flag.IntVar(&m.Mem.NumSMs, "sms", m.Mem.NumSMs, "number of SMs")
	flag.IntVar(&m.Mem.NumBanks, "banks", m.Mem.NumBanks, "number of L2 banks")
	flag.Uint64Var(&m.Mem.GTSC.Lease, "gtsc-lease", m.Mem.GTSC.Lease, "G-TSC logical lease")
	flag.IntVar(&m.Mem.GTSC.TSBits, "tsbits", m.Mem.GTSC.TSBits, "G-TSC timestamp width in bits (narrow widths make the §V-D overflow reset routine)")
	flag.Uint64Var(&m.Mem.TC.Lease, "tc-lease", m.Mem.TC.Lease, "TC lease in cycles")
	flag.IntVar(&cfg.Workers, "j", cfg.Workers, "simulation workers (0 = GOMAXPROCS, 1 = serial); results are bit-identical at any -j")
	flag.Uint64Var(&m.SlackCycles, "slack", m.SlackCycles, "relaxed-synchronization bound in cycles for every run (0 = bit-exact). Nonzero slack perturbs cycle counts boundedly with functional results preserved; it is result-affecting, so it is part of cache keys and journal signatures. Ignored under -faultseed")
	flag.BoolVar(&cfg.KeepGoing, "keep-going", cfg.KeepGoing, "survive individual run failures: assemble partial figures plus a missing-runs manifest")
	var (
		exp       = flag.String("exp", "all", "experiment: all, table2, fig12..fig17, expiry, vis, combine, lease, tso, scale, micro, platform, cache, dir")
		simw      = flag.Int("simworkers", 1, "SM-domain workers inside each simulation under -slack (0 = GOMAXPROCS); goroutine budget is j*simworkers, clamped so it stays <= 2*GOMAXPROCS; results are identical at any setting")
		journal   = flag.String("journal", "", "crash-safe run journal: completed simulations are persisted here and replayed on restart")
		timeout   = flag.Duration("timeout", 0, "bound wall-clock time; on expiry the sweep suspends gracefully and exits 3")
		faultSeed = flag.Int64("faultseed", 0, "run every simulation under the chaos fault-injection plan with this seed (0 = off)")
	)
	flag.Parse()
	m.SimWorkers = cli.ClampSimWorkers(cfg.Workers, *simw)
	if *faultSeed != 0 {
		m.Mem.Fault = fault.Chaos(*faultSeed)
	}

	// First SIGINT/SIGTERM: cancel the session; in-flight simulations
	// suspend at their next poll point, the journal already holds every
	// completed run, and we exit 3. Second signal: abort hard, 130.
	ctx := context.Background()
	if *timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, *timeout)
		defer tcancel()
	}
	ctx, stop := cli.WithSignals(ctx, "gtscbench")
	defer stop()

	s := experiments.NewSession(cfg).WithContext(ctx)
	if *journal != "" {
		replayed, err := s.AttachJournal(*journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gtscbench:", err)
			return exitFailure
		}
		defer func() {
			if err := s.CloseJournal(); err != nil {
				fmt.Fprintln(os.Stderr, "gtscbench: journal:", err)
			}
		}()
		if s.JournalDroppedTail() {
			fmt.Fprintf(os.Stderr, "gtscbench: journal %s had a torn final record (crash mid-append); dropped it\n", *journal)
		}
		if replayed > 0 {
			fmt.Printf("journal: replayed %d completed run(s) from %s; only missing runs will execute\n", replayed, *journal)
		}
	}

	var err error
	if *exp == "all" {
		err = s.RunAll(os.Stdout)
	} else {
		err = s.RunOne(*exp, os.Stdout)
	}
	if err != nil {
		var ce *diag.CanceledError
		if errors.As(err, &ce) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "gtscbench: interrupted: %v\n", err)
			fmt.Fprintf(os.Stderr, "gtscbench: %d simulation(s) had completed", len(s.CachedRuns()))
			if *journal != "" {
				fmt.Fprintf(os.Stderr, " and are journaled; rerun with -journal %s to resume", *journal)
			}
			fmt.Fprintln(os.Stderr)
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, "gtscbench:", err)
		return exitFailure
	}
	if missing := s.Missing(); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "gtscbench: completed with %d failed run(s); see the PARTIAL OUTPUT manifests above\n", len(missing))
		return exitFailure
	}
	return exitOK
}
