package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps experiment tests fast: a 4-SM machine at scale 1.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 1
	cfg.Machine.Mem.NumSMs = 4
	cfg.Machine.Mem.NumBanks = 4
	return cfg
}

func TestFig12Shapes(t *testing.T) {
	s := NewSession(tinyConfig())
	r, err := s.RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline orderings must reproduce on the coherence
	// set: G-TSC-RC beats TC-RC, and even G-TSC-SC beats TC-RC.
	if r.GTSCRCoverTCRC <= 1.0 {
		t.Fatalf("G-TSC-RC must outperform TC-RC, got %.2fx", r.GTSCRCoverTCRC)
	}
	if r.GTSCSCoverTCRC <= 1.0 {
		t.Fatalf("G-TSC-SC must outperform TC-RC, got %.2fx", r.GTSCSCoverTCRC)
	}
	if r.GTSCRCoverSC < 1.0 {
		t.Fatalf("RC must not lose to SC on average for G-TSC, got %.2fx", r.GTSCRCoverSC)
	}
	// The non-coherent overhead stays moderate (paper ~11%).
	if r.GTSCvsL1NCOverhead < -0.05 || r.GTSCvsL1NCOverhead > 0.6 {
		t.Fatalf("G-TSC overhead vs non-coherent L1 out of range: %.2f", r.GTSCvsL1NCOverhead)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "G-TSC-RC") {
		t.Fatal("print output incomplete")
	}
}

func TestFig13And15Shapes(t *testing.T) {
	s := NewSession(tinyConfig())
	f13, err := s.RunFig13()
	if err != nil {
		t.Fatal(err)
	}
	if f13.TCOverGTSCSet1 <= 1.0 {
		t.Fatalf("TC must stall more than G-TSC on the coherence set, got %.2fx", f13.TCOverGTSCSet1)
	}
	f15, err := s.RunFig15()
	if err != nil {
		t.Fatal(err)
	}
	if f15.ReductionRC <= 0 {
		t.Fatalf("G-TSC must reduce NoC traffic vs TC under RC, got %.2f", f15.ReductionRC)
	}
	var buf bytes.Buffer
	f13.Print(&buf)
	f15.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no print output")
	}
}

func TestFig14LeaseInsensitivity(t *testing.T) {
	s := NewSession(tinyConfig())
	r, err := s.RunFig14()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports insensitivity across 8-20; allow a small band.
	if r.MaxSpread > 0.1 {
		t.Fatalf("lease sensitivity too high: %.2f", r.MaxSpread)
	}
}

func TestTableIIAndAblations(t *testing.T) {
	s := NewSession(tinyConfig())
	t2, err := s.RunTableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Workloads) != 12 {
		t.Fatal("Table II must cover all 12 benchmarks")
	}
	for _, n := range t2.Workloads {
		if t2.BLCycles[n] == 0 || t2.TCCycles[n] == 0 {
			t.Fatalf("%s: zero cycles", n)
		}
	}
	comb, err := s.RunAblationCombining()
	if err != nil {
		t.Fatal(err)
	}
	if comb.MsgIncrease <= 0 {
		t.Fatalf("forward-all must increase requests, got %.2f", comb.MsgIncrease)
	}
	vis, err := s.RunAblationVisibility()
	if err != nil {
		t.Fatal(err)
	}
	// The paper found the difference negligible; allow a wide band but
	// require both to complete.
	if vis.Option2Speedup < 0.5 || vis.Option2Speedup > 2.0 {
		t.Fatalf("visibility ablation ratio implausible: %.2f", vis.Option2Speedup)
	}
}

func TestRunOneUnknown(t *testing.T) {
	s := NewSession(tinyConfig())
	var buf bytes.Buffer
	if err := s.RunOne("nope", &buf); err == nil {
		t.Fatal("unknown experiment must error")
	}
	if err := s.RunOne("expiry", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "expiration") {
		t.Fatal("expiry output missing")
	}
}

func TestSessionCaching(t *testing.T) {
	s := NewSession(tinyConfig())
	if _, err := s.RunFig12(); err != nil {
		t.Fatal(err)
	}
	n := len(s.cache)
	if n == 0 {
		t.Fatal("cache empty after a figure")
	}
	// Fig 13 reuses the same runs: no new simulations.
	if _, err := s.RunFig13(); err != nil {
		t.Fatal(err)
	}
	if len(s.cache) != n {
		t.Fatalf("Fig 13 should be fully cached: %d -> %d", n, len(s.cache))
	}
}

func TestExtensions(t *testing.T) {
	s := NewSession(tinyConfig())

	lease, err := s.RunAblationLease()
	if err != nil {
		t.Fatal(err)
	}
	if lease.RenewalCut <= 0 {
		t.Fatalf("adaptive leases must cut renewals, got %.2f", lease.RenewalCut)
	}

	spec, err := s.RunConsistencySpectrum()
	if err != nil {
		t.Fatal(err)
	}
	// TSO sits between SC and RC (inclusive on both sides).
	if spec.TSOoverSC < 0.95 || spec.TSOoverSC > spec.RCoverSC*1.05 {
		t.Fatalf("TSO out of the SC..RC band: TSO %.2f, RC %.2f", spec.TSOoverSC, spec.RCoverSC)
	}

	micro, err := s.RunMicroTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(micro.Micros) != 6 {
		t.Fatalf("expected 6 micros, got %d", len(micro.Micros))
	}
	// False sharing is where G-TSC's no-stall writes shine vs TC.
	if micro.Cycles["FS"]["G-TSC-RC"] >= micro.Cycles["FS"]["TC-RC"] {
		t.Fatal("G-TSC must beat TC on false sharing")
	}
	// HIST performs its atomics at the L2.
	if micro.Atomics["HIST"] == 0 {
		t.Fatal("HIST must count atomics")
	}

	var buf bytes.Buffer
	lease.Print(&buf)
	spec.Print(&buf)
	micro.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("no print output")
	}
}

func TestScalabilitySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	s := NewSession(tinyConfig())
	r, err := s.RunScalability()
	if err != nil {
		t.Fatal(err)
	}
	for _, sms := range r.SMCounts {
		if r.Speedup[sms] <= 1.0 {
			t.Fatalf("G-TSC must beat TC at %d SMs, got %.2fx", sms, r.Speedup[sms])
		}
	}
}

func TestDirectoryCompare(t *testing.T) {
	s := NewSession(tinyConfig())
	r, err := s.RunDirectoryCompare()
	if err != nil {
		t.Fatal(err)
	}
	if r.GTSCSpeedup < 0.8 {
		t.Fatalf("directory implausibly fast: %.2fx", r.GTSCSpeedup)
	}
	var invs uint64
	for _, n := range r.Workloads {
		invs += r.Invalidations[n]
	}
	if invs == 0 {
		t.Fatal("sharing workloads must trigger invalidations")
	}
	// The §II-C traffic argument: invalidations grow with SM count.
	if r.InvsAt[32] <= r.InvsAt[4] {
		t.Fatalf("invalidations must grow with SMs: %d at 4, %d at 32", r.InvsAt[4], r.InvsAt[32])
	}
	if r.DirBitsAt[32] <= r.DirBitsAt[4] {
		t.Fatal("directory storage must grow with SMs")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if !strings.Contains(buf.String(), "MESI-dir") {
		t.Fatal("print output incomplete")
	}
}

// TestRunAllTiny smoke-runs the entire suite (all tables, figures,
// ablations and extensions) on a tiny machine — the cmd/gtscbench
// path end to end, covering every Print.
func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	cfg := tinyConfig()
	s := NewSession(cfg)
	var buf bytes.Buffer
	if err := s.RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table II", "Fig 12", "Fig 13", "Fig 14", "Fig 15", "Fig 16", "Fig 17",
		"SecVI-E", "SecV-A", "SecV-B", "adaptive", "consistency spectrum",
		"machine size", "microbenchmark", "substrate", "L1 geometry", "MESI-dir",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("suite output missing %q", want)
		}
	}
}

// TestZeroConfigIsPaperMachine: a zero Scale or Machine takes the
// default's, so Config{Workers: 1} runs the paper machine at scale 2.
func TestZeroConfigIsPaperMachine(t *testing.T) {
	want := DefaultConfig()
	want.Workers = 1
	if got := NewSession(Config{Workers: 1}).Cfg; got != want {
		t.Errorf("zero config became %+v, want %+v", got, want)
	}
}
