package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// stubRuns replaces the session's simulator with one that returns an
// empty run at once, failing every cell whose workload is named fail.
func stubRuns(s *Session, fail string) {
	s.runSim = func(ctx context.Context, inst *workload.Instance, cfg sim.Config) (*stats.Run, error) {
		if inst.Kernels[0].Name == fail {
			return nil, errors.New("injected failure")
		}
		return &stats.Run{Cycles: 1}, nil
	}
}

// TestEveryExperimentSurvivesAFailedCell: under KeepGoing, every
// experiment assembles a partial result around failed cells — here
// every CC cell — instead of returning an error, and prints the
// manifest of exactly the failed cells it read.
func TestEveryExperimentSurvivesAFailedCell(t *testing.T) {
	for _, e := range suite {
		t.Run(e.name, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.KeepGoing = true
			s := NewSession(cfg)
			stubRuns(s, "CC")
			var buf bytes.Buffer
			if err := s.RunOne(e.name, &buf); err != nil {
				t.Fatalf("KeepGoing experiment failed: %v", err)
			}
			missing := s.Missing()
			if got := strings.Contains(buf.String(), "PARTIAL OUTPUT"); got != (len(missing) > 0) {
				t.Fatalf("%d failed cells, manifest printed: %v", len(missing), got)
			}
			for _, k := range missing {
				if !strings.HasPrefix(k, "CC/") {
					t.Errorf("Missing() lists %q, which did not fail", k)
				}
				if !strings.Contains(buf.String(), "  missing "+k+"\n") {
					t.Errorf("manifest omits failed cell %q", k)
				}
			}
			if e.name != "micro" && len(missing) == 0 {
				t.Error("no CC cell failed: the experiment reads none")
			}
		})
	}
}

// TestEveryExperimentSimulatesItsCells pins how many simulations each
// experiment runs alone in a fresh session, and the whole suite's
// total: the grid simulates exactly the cells a driver names, each
// once, and never a workload that needs coherence under l1nc.
func TestEveryExperimentSimulatesItsCells(t *testing.T) {
	want := map[string]uint64{
		"table2": 24, "fig12": 66, "fig13": 60, "fig14": 42, "fig15": 60, "fig16": 60, "fig17": 48,
		"expiry": 12, "vis": 12, "combine": 12, "lease": 12, "tso": 18,
		"scale": 48, "micro": 18, "platform": 48, "cache": 48, "dir": 60,
	}
	if len(want) != len(suite) {
		t.Fatalf("%d experiments, %d pinned counts", len(suite), len(want))
	}
	for _, e := range suite {
		s := NewSession(tinyConfig())
		stubRuns(s, "")
		if err := s.RunOne(e.name, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got := s.Executed(); got != want[e.name] {
			t.Errorf("%s simulated %d cells, want %d", e.name, got, want[e.name])
		}
	}
	s := NewSession(tinyConfig())
	stubRuns(s, "")
	if err := s.RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := s.Executed(); got != 324 {
		t.Errorf("the suite simulated %d cells, want 324", got)
	}
}
