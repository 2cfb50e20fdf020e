// Command benchmark measures the simulator's host cost on four
// workloads and checks every simulation it runs. See README.md for the
// workloads, the metrics, and how to compare two commits.
//
//	go run . --workload fig12 --seed 1 --seconds 15 --trace 0
//
// prints, as its last line of standard output, one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's output record.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spanDir is where a traced run writes the raw spans of one cell,
// relative to the working directory (the checkout's build directory).
const spanDir = ".bench_build/spans"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig12, l2_stream, write_mix or relaxed")
	seed := fs.Uint64("seed", 1, "orders each round's cells and derives the write_mix generator streams")
	seconds := fs.Int("seconds", 15, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b := &bench{wl: wl, seed: *seed, log: stderr, calib: newCalibState()}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = b.traced(d)
	} else {
		res = b.measured(d)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// measured runs the check pass, then untraced rounds until d has passed
// and at least minSims simulations ran, and reports the end-to-end
// metrics.
func (b *bench) measured(d time.Duration) *result {
	b.checkPass()
	host0, hostOK := readHostTimes()
	var rounds []*round
	sims := 0
	for start := time.Now(); time.Since(start) < d || sims < minSims; {
		r := b.runRound(roundOpts{})
		b.check(r, false)
		rounds = append(rounds, r)
		sims += r.sims
	}
	if host1, ok := readHostTimes(); ok && hostOK {
		fmt.Fprintf(b.log, "%s: %d rounds, %d simulations, host steal %.2f%%\n",
			b.wl.name, len(rounds), sims, stealPct(host0, host1))
	}
	return b.result(endToEnd(rounds), true)
}

// endToEnd assembles the end-to-end metrics of measured rounds. Times
// are calibrated CPU seconds (see calibNominal): per round, the sum over
// cells of each cell's median. The cost per simulated cycle is a
// percentile over every simulated cycle of the run, each simulation's
// cycles costing its CPU time over its cycles; weighting by cycles
// keeps a percentile from jumping between the few distinct costs of a
// workload's cells. Memory is a median over rounds.
func endToEnd(rounds []*round) map[string]metric {
	var alloc, heap []float64
	var perCycle []weighted
	for _, r := range rounds {
		alloc = append(alloc, float64(r.rt.allocBytes)/1e6)
		heap = append(heap, float64(r.heapPeak)/1e6)
		for _, c := range r.cells {
			if c.cycles > 0 {
				perCycle = append(perCycle, weighted{c.calibrated(c.sim) * 1e9 / float64(c.cycles), float64(c.cycles)})
			}
		}
	}
	return map[string]metric{
		"setup_s":              {calibrated(rounds, setupPhase), "s"},
		"cpu_s":                {calibrated(rounds, simPhase), "s"},
		"cpu_ns_per_cycle.p50": {weightedQuantile(perCycle, 0.5), "ns"},
		"cpu_ns_per_cycle.p90": {weightedQuantile(perCycle, 0.9), "ns"},
		"alloc_mb":             {median(alloc), "MB"},
		"peak_heap_mb":         {median(heap), "MB"},
	}
}

func (b *bench) result(m map[string]metric, ok bool) *result {
	return &result{Correct: ok && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// traced runs the check pass, then profiles untraced rounds for the
// first 40% of d, runs plain rounds for the next 20%, and traces rounds
// with controller spans for the rest, and reports the per-layer
// metrics.
func (b *bench) traced(d time.Duration) (*result, error) {
	b.checkPass()
	host0, hostOK := readHostTimes()
	start := time.Now()
	untraced := func(until time.Duration, opt roundOpts) []*round {
		var rs []*round
		for len(rs) == 0 || time.Since(start) < until {
			r := b.runRound(opt)
			b.check(r, false)
			rs = append(rs, r)
		}
		return rs
	}

	// Profiled rounds: CPU shares per layer. While the profiler runs,
	// the process CPU clock advances only at scheduler ticks, so no time
	// is read from these rounds.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	profiled := untraced(d*2/5, roundOpts{profiling: true})
	pprof.StopCPUProfile()
	sh, err := shares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	// Plain rounds: the undisturbed CPU times, runtime and host numbers.
	plain := untraced(d*3/5, roundOpts{})

	// Traced rounds: controller spans, self time, and the statistics
	// that must equal the untraced runs'.
	var traced []*round
	record := b.smallestCell()
	for len(traced) == 0 || time.Since(start) < d {
		opt := roundOpts{traced: true}
		if len(traced) == 0 {
			opt.record = record
		}
		r := b.runRound(opt)
		b.check(r, true)
		traced = append(traced, r)
	}
	steal := 0.0
	if host1, ok := readHostTimes(); ok && hostOK {
		steal = stealPct(host0, host1)
	}

	if err := writeSpans(b.wl.name, record, traced[0]); err != nil {
		fmt.Fprintln(b.log, "spans:", err)
	}
	m := layerMetrics(b, plain, traced, sh, steal)

	ok := true
	if other := m["other.cpu_share"].Value; other >= 0.05 {
		fmt.Fprintf(b.log, "FAIL layer accounting: %.1f%% of CPU time maps to no layer\n", 100*other)
		ok = false
	}
	for _, r := range traced {
		if r.nested > 0 {
			fmt.Fprintf(b.log, "FAIL span accounting: %d controller spans nested in another\n", r.nested)
			ok = false
		}
		if r.serialSelf && r.selfNs < 0 {
			fmt.Fprintf(b.log, "FAIL span accounting: negative engine self time %d ns\n", r.selfNs)
			ok = false
		}
	}
	fmt.Fprintf(b.log, "%s: %d profiled rounds (%d samples), %d plain rounds, %d traced rounds, host steal %.2f%%, tracing overhead %.1f%%\n",
		b.wl.name, len(profiled), sh.samples, len(plain), len(traced), steal, m["trace.overhead_pct"].Value)
	return b.result(m, ok), nil
}

// writeSpans writes the raw spans of one cell of a traced round as JSON
// lines under spanDir, numbering the controller spans after the
// harness spans.
func writeSpans(workload, cell string, r *round) error {
	if len(r.raw) == 0 {
		return errors.New("no spans recorded")
	}
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{"workload": workload, "cell": cell, "truncated": r.rawTruncated}); err != nil {
		return err
	}
	next := 0
	for _, s := range r.raw {
		next = max(next, s.ID)
	}
	for _, s := range r.raw {
		if s.ID == 0 {
			next++
			s.ID = next
		}
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(spanDir, workload+".jsonl"), buf.Bytes(), 0o644)
}
