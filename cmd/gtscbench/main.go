// Command gtscbench regenerates the paper's evaluation: Table II,
// Figures 12–17, the §VI-E expiry-miss characterization, and the §V
// design ablations, printing the same rows and series the paper
// reports (normalized to the same baselines).
//
// Usage:
//
//	gtscbench                  # full suite at paper scale
//	gtscbench -exp fig12       # one experiment
//	gtscbench -exp lease       # an extension (lease, tso, scale, micro, platform, cache)
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
	"runtime"

	"github.com/gtsc-sim/gtsc/internal/cli"
	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/experiments"
)

// clampSimWorkers resolves -simworkers against -j: each of the j
// session workers drives its own simulation, so the goroutine budget
// is j*simworkers. The product is clamped to 2*GOMAXPROCS — results
// are identical at any setting, so the clamp only bounds scheduler
// oversubscription, never changes output.
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

// Exit codes (shared across binaries; see internal/cli).
const (
	exitOK          = cli.ExitOK
	exitFailure     = cli.ExitFailure
	exitInterrupted = cli.ExitInterrupted
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		exp    = flag.String("exp", "all", "experiment: all, table2, fig12..fig17, expiry, vis, combine, lease, tso, scale, micro, platform, cache")
		scale  = flag.Int("scale", 2, "workload scale factor")
		sms    = flag.Int("sms", 16, "number of SMs")
		banks  = flag.Int("banks", 8, "number of L2 banks")
		lease  = flag.Uint64("gtsc-lease", 10, "G-TSC logical lease")
		tsbits = flag.Int("tsbits", 0, "G-TSC timestamp width in bits (0 = protocol default 16; narrow widths make the §V-D overflow reset routine)")
		tcl    = flag.Uint64("tc-lease", 400, "TC lease in cycles")
		jobs   = flag.Int("j", 0, "simulation workers (0 = GOMAXPROCS, 1 = serial); results are bit-identical at any -j")
		simw   = flag.Int("simworkers", 1, "SM-domain workers inside each simulation under -slack (0 = GOMAXPROCS); goroutine budget is j*simworkers, clamped so it stays <= 2*GOMAXPROCS; results are identical at any setting")
		slack  = flag.Uint64("slack", 0, "relaxed-synchronization bound in cycles for every run (0 = bit-exact). Nonzero slack perturbs cycle counts boundedly with functional results preserved; it is result-affecting, so it is part of cache keys and journal signatures. Ignored under -faultseed")

		journal   = flag.String("journal", "", "crash-safe run journal: completed simulations are persisted here and replayed on restart")
		timeout   = flag.Duration("timeout", 0, "bound wall-clock time; on expiry the sweep suspends gracefully and exits 3")
		keepGoing = flag.Bool("keep-going", false, "survive individual run failures: assemble partial figures plus a missing-runs manifest")
		faultSeed = flag.Int64("faultseed", 0, "run every simulation under the chaos fault-injection plan with this seed (0 = off)")
		retry     = flag.Int("retry", 0, "retries (with backoff and derived seeds) for transient fault-injected failures")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.NumBanks = *banks
	cfg.GTSCLease = *lease
	cfg.GTSCTSBits = *tsbits
	cfg.TCLease = *tcl
	cfg.Workers = *jobs
	cfg.SimWorkers = clampSimWorkers(*jobs, *simw)
	cfg.FaultSeed = *faultSeed
	cfg.RetryTransient = *retry
	cfg.Slack = *slack
	cfg.KeepGoing = *keepGoing

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
