package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/diag"
	"github.com/gtsc-sim/gtsc/internal/fault"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// smallCfg is a fast machine for resilience tests: tiny inputs, tiny
// geometry, serial by default so journal record order is stable.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Scale, cfg.Workers = 1, 1
	cfg.Machine.Mem.NumSMs, cfg.Machine.Mem.NumBanks = 2, 2
	return cfg
}

// smallGrid runs a 2-workload x 2-variant grid and returns an error
// only if the session reports one.
func smallGrid(s *Session) error { return prewarm(s, workload.All()[:2], vGTSCRC, vTCRC) }

// prewarm runs every cell of wls x vs on the session machine.
func prewarm(s *Session, wls []*workload.Workload, vs ...variant) error {
	_, err := s.grid(cells(wls, vs...))
	return err
}

// TestJournalReplayNoReexec is the resume acceptance gate at the
// sweep level: a session restarted on an existing journal restores
// every completed run from disk and re-executes NOTHING — pinned by
// the executed run-counter — while producing bit-identical results.
func TestJournalReplayNoReexec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jrnl")

	s1 := NewSession(smallCfg())
	if _, err := s1.AttachJournal(path); err != nil {
		t.Fatalf("attach 1: %v", err)
	}
	if err := smallGrid(s1); err != nil {
		t.Fatalf("grid 1: %v", err)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatalf("close 1: %v", err)
	}
	want := s1.CachedRuns()
	if len(want) != 4 || s1.Executed() != 4 {
		t.Fatalf("session 1 ran %d sims with %d cached, want 4/4", s1.Executed(), len(want))
	}

	s2 := NewSession(smallCfg())
	replayed, err := s2.AttachJournal(path)
	if err != nil {
		t.Fatalf("attach 2: %v", err)
	}
	if replayed != 4 {
		t.Fatalf("replayed %d runs, want 4", replayed)
	}
	if s2.JournalDroppedTail() {
		t.Error("clean journal reported a torn tail")
	}
	if err := smallGrid(s2); err != nil {
		t.Fatalf("grid 2: %v", err)
	}
	if got := s2.Executed(); got != 0 {
		t.Errorf("restarted session re-executed %d runs, want 0", got)
	}
	if got := s2.CachedRuns(); !reflect.DeepEqual(got, want) {
		t.Error("journal-replayed results differ from the originals")
	}
	if err := s2.CloseJournal(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

// TestJournalTornTailResume kills the journal the hard way — a
// truncated final record, as a crash mid-append leaves — and proves
// the restart drops ONLY the torn record: the intact ones replay, and
// exactly one simulation re-executes.
func TestJournalTornTailResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jrnl")

	s1 := NewSession(smallCfg())
	if _, err := s1.AttachJournal(path); err != nil {
		t.Fatalf("attach 1: %v", err)
	}
	if err := smallGrid(s1); err != nil {
		t.Fatalf("grid 1: %v", err)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatalf("close 1: %v", err)
	}
	want := s1.CachedRuns()

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := NewSession(smallCfg())
	replayed, err := s2.AttachJournal(path)
	if err != nil {
		t.Fatalf("attach on torn journal must not be fatal: %v", err)
	}
	if !s2.JournalDroppedTail() {
		t.Error("torn tail not reported")
	}
	if replayed != 3 {
		t.Errorf("replayed %d runs, want 3 (torn record dropped)", replayed)
	}
	if err := smallGrid(s2); err != nil {
		t.Fatalf("grid 2: %v", err)
	}
	if got := s2.Executed(); got != 1 {
		t.Errorf("re-executed %d runs, want exactly the 1 torn-away run", got)
	}
	if got := s2.CachedRuns(); !reflect.DeepEqual(got, want) {
		t.Error("post-repair results differ from the originals")
	}
	if err := s2.CloseJournal(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

// TestJournalConfigSignature: a journal must only feed a session with
// the same result-affecting configuration (machine geometry, slack)
// — but scheduling knobs (Workers, Machine.SimWorkers) are excluded,
// so they can change between runs.
func TestJournalConfigSignature(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jrnl")
	s1 := NewSession(smallCfg())
	if _, err := s1.AttachJournal(path); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s1.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	bad := smallCfg()
	bad.Machine.Mem.NumSMs = 4
	if _, err := NewSession(bad).AttachJournal(path); err == nil {
		t.Error("journal accepted by a session with different machine geometry")
	}
	bad = smallCfg()
	bad.Machine.SlackCycles = 8 // perturbs cycle counts
	if _, err := NewSession(bad).AttachJournal(path); err == nil {
		t.Error("journal accepted by a session with a different slack")
	}

	ok := smallCfg()
	ok.Workers = 7            // scheduling only; results are identical at any -j
	ok.Machine.SimWorkers = 2 // likewise at any domain-worker count
	s2 := NewSession(ok)
	if _, err := s2.AttachJournal(path); err != nil {
		t.Errorf("scheduling-knob change rejected the journal: %v", err)
	}
	s2.CloseJournal()
}

// TestPanicIsolation: a panic inside one simulation becomes a typed
// *diag.WorkerPanicError cached for that cell only; sibling runs
// complete and KeepGoing assembly reports the cell in Missing().
func TestPanicIsolation(t *testing.T) {
	cfg := smallCfg()
	cfg.KeepGoing = true
	s := NewSession(cfg)
	s.runSim = func(ctx context.Context, inst *workload.Instance, c sim.Config) (*stats.Run, error) {
		if c.Mem.Protocol == vTCRC.proto {
			panic("injected test panic")
		}
		return &stats.Run{Cycles: 42}, nil
	}

	wl := workload.All()[0]
	if err := prewarm(s, []*workload.Workload{wl}, vGTSCRC, vTCRC); err != nil {
		t.Fatalf("KeepGoing fan-out returned an error: %v", err)
	}

	if run, err := s.runCell(cell{wl: wl, v: vGTSCRC}); err != nil || run.Cycles != 42 {
		t.Errorf("sibling run damaged by the panic: run=%v err=%v", run, err)
	}
	_, err := s.runCell(cell{wl: wl, v: vTCRC})
	var wp *diag.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("panicking cell error = %v, want *diag.WorkerPanicError", err)
	}
	if wp.Value != "injected test panic" || wp.Stack == "" {
		t.Errorf("panic not captured: value=%q stackLen=%d", wp.Value, len(wp.Stack))
	}
	missing := s.Missing()
	if len(missing) != 1 || missing[0] != s.key(wl.Name, vTCRC) {
		t.Errorf("Missing() = %v, want exactly the panicked key", missing)
	}
}

// TestSessionContextCancel: a canceled session context stops the
// sweep with the cancellation cause instead of running anything.
func TestSessionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(smallCfg()).WithContext(ctx)
	err := smallGrid(s)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled session ran anyway: %v", err)
	}
}

// TestWatchdogOversubscribed pins the satellite requirement that the
// forward-progress watchdog counts SIMULATED cycles only: a worker
// pool oversubscribed far past GOMAXPROCS parks runs for long
// wall-clock stretches, but a parked run makes no simulated progress
// and therefore cannot trip even a tight window.
func TestWatchdogOversubscribed(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)

	cfg := smallCfg()
	cfg.Workers = 8 // 8 workers on 1 OS thread: heavy descheduling
	cfg.Machine.WatchdogWindow = 10_000
	s := NewSession(cfg)
	if err := prewarm(s, workload.All()[:4], vGTSCRC, vTCRC); err != nil {
		t.Fatalf("oversubscribed sweep tripped: %v", err)
	}
	if got := s.Executed(); got != 8 {
		t.Fatalf("executed %d runs, want 8", got)
	}

	// Same machine, serial: bit-identical results prove the watchdog
	// (and the oversubscription) fed nothing back into the simulations.
	cfg.Workers = 1
	ref := NewSession(cfg)
	if err := prewarm(ref, workload.All()[:4], vGTSCRC, vTCRC); err != nil {
		t.Fatalf("serial reference sweep failed: %v", err)
	}
	if !reflect.DeepEqual(s.CachedRuns(), ref.CachedRuns()) {
		t.Error("oversubscribed results differ from serial reference")
	}
}

// TestExtensionSweepsUseSessionConfig: the extension drivers run their
// machine sweeps through the session's run path, so every simulation
// carries the session's slack, fault plan, watchdog, leases and
// timestamp width on top of the sweep's own machine change.
func TestExtensionSweepsUseSessionConfig(t *testing.T) {
	cfg := smallCfg()
	m := &cfg.Machine
	m.Mem.NumSMs, m.SlackCycles, m.Mem.Fault, m.WatchdogWindow = 4, 8, fault.Chaos(7), 12345
	m.Mem.GTSC.Lease, m.Mem.TC.Lease, m.Mem.GTSC.TSBits = 12, 300, 12
	drivers := []struct {
		name string
		run  func(s *Session) error
	}{
		{"scalability", func(s *Session) error { _, err := s.RunScalability(); return err }},
		{"directory", func(s *Session) error { _, err := s.RunDirectoryCompare(); return err }},
		{"micro", func(s *Session) error { _, err := s.RunMicroTable(); return err }},
		{"platform", func(s *Session) error { _, err := s.RunPlatform(); return err }},
		{"cache", func(s *Session) error { _, err := s.RunCacheSweep(); return err }},
	}
	for _, d := range drivers {
		s := NewSession(cfg)
		var got []sim.Config
		s.runSim = func(ctx context.Context, inst *workload.Instance, c sim.Config) (*stats.Run, error) {
			got = append(got, c)
			return &stats.Run{Cycles: 1}, nil
		}
		if err := d.run(s); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if len(got) == 0 {
			t.Fatalf("%s ran no simulations", d.name)
		}
		for _, c := range got {
			if c.SlackCycles != m.SlackCycles || c.Mem.Fault != m.Mem.Fault || c.WatchdogWindow != m.WatchdogWindow ||
				c.Mem.GTSC.Lease != m.Mem.GTSC.Lease || c.Mem.TC.Lease != m.Mem.TC.Lease || c.Mem.GTSC.TSBits != m.Mem.GTSC.TSBits {
				t.Fatalf("%s: a run lost the session config: slack=%d fault=%+v watchdog=%d leases=%d/%d tsbits=%d",
					d.name, c.SlackCycles, c.Mem.Fault, c.WatchdogWindow, c.Mem.GTSC.Lease, c.Mem.TC.Lease, c.Mem.GTSC.TSBits)
			}
		}
	}
}
