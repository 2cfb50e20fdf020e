package experiments

import (
	"reflect"
	"sync"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// TestParallelSessionMatchesSerial proves the worker-pool engine is
// deterministically equivalent to the serial path: the full Fig-12
// grid run with Workers=1 and Workers=4 must produce bit-identical
// stats.Run results for every cached simulation, and the figure's
// derived numbers must match exactly.
func TestParallelSessionMatchesSerial(t *testing.T) {
	serialCfg := tinyConfig()
	serialCfg.Workers = 1
	serial := NewSession(serialCfg)
	serialFig, err := serial.RunFig12()
	if err != nil {
		t.Fatal(err)
	}

	parallelCfg := tinyConfig()
	parallelCfg.Workers = 4
	par := NewSession(parallelCfg)
	parFig, err := par.RunFig12()
	if err != nil {
		t.Fatal(err)
	}

	sRuns, pRuns := serial.CachedRuns(), par.CachedRuns()
	if len(sRuns) == 0 {
		t.Fatal("serial session cached nothing")
	}
	if len(sRuns) != len(pRuns) {
		t.Fatalf("cache sizes differ: serial %d, parallel %d", len(sRuns), len(pRuns))
	}
	for k, sr := range sRuns {
		pr, ok := pRuns[k]
		if !ok {
			t.Fatalf("parallel session missing %q", k)
		}
		if !reflect.DeepEqual(sr, pr) {
			t.Errorf("stats.Run for %q differs between serial and parallel:\nserial:   %+v\nparallel: %+v", k, *sr, *pr)
		}
	}
	if !reflect.DeepEqual(serialFig, parFig) {
		t.Errorf("Fig12 derived results differ:\nserial:   %+v\nparallel: %+v", serialFig, parFig)
	}
}

// TestCacheKeyingNoCollision pins the cache key: variants differing
// only in adaptive/forwardAll/oldCopy (or lease) must occupy distinct
// cache slots — a collision would silently serve one configuration's
// results as another's.
func TestCacheKeyingNoCollision(t *testing.T) {
	s := NewSession(tinyConfig())
	base := variant{proto: memsys.GTSC, cons: gpu.RC}
	variants := []variant{
		base,
		{proto: memsys.GTSC, cons: gpu.RC, adaptive: true},
		{proto: memsys.GTSC, cons: gpu.RC, forwardAll: true},
		{proto: memsys.GTSC, cons: gpu.RC, oldCopy: true},
		{proto: memsys.GTSC, cons: gpu.RC, lease: 12},
	}
	keys := map[string]variant{}
	for _, v := range variants {
		k := s.key("BH", v)
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision: %+v and %+v both map to %q", prev, v, k)
		}
		keys[k] = v
	}
	// And the runs must actually execute separately.
	wl := workload.CoherenceSet()[0]
	for _, v := range variants {
		if _, err := s.runCell(cell{wl: wl, v: v}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Executed(); got != uint64(len(variants)) {
		t.Fatalf("executed %d simulations for %d distinct variants", got, len(variants))
	}
}

// TestCacheHitDoesNotRerun asserts a cache hit never re-runs the
// simulator: repeated and concurrent requests for the same variant
// leave the execution counter at one (single flight).
func TestCacheHitDoesNotRerun(t *testing.T) {
	s := NewSession(tinyConfig())
	wl := workload.CoherenceSet()[0]
	first, err := s.runCell(cell{wl: wl, v: vGTSCRC})
	if err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 1 {
		t.Fatalf("executed = %d after first run", s.Executed())
	}
	// Hammer the same key from many goroutines: still one execution,
	// and every caller gets the same *stats.Run.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.runCell(cell{wl: wl, v: vGTSCRC})
			if err != nil {
				t.Error(err)
			}
			if r != first {
				t.Error("cache hit returned a different run object")
			}
		}()
	}
	wg.Wait()
	if s.Executed() != 1 {
		t.Fatalf("cache hits re-ran the simulator: executed = %d", s.Executed())
	}
}

// TestObserverIsolationParallel asserts the observer contract of the
// parallel engine: every concurrently running simulation gets its own
// coherence.Observer (here a check.Recorder), never a shared one.
// Under -race this also proves the recorders see no concurrent writes.
func TestObserverIsolationParallel(t *testing.T) {
	wl := workload.CoherenceSet()[0]
	const n = 4
	recs := make([]*check.Recorder, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		recs[i] = check.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := sim.DefaultConfig()
			cfg.Mem.Protocol = memsys.GTSC
			cfg.Mem.NumSMs = 4
			cfg.Mem.NumBanks = 4
			cfg.SM.Consistency = gpu.RC
			cfg.Observer = recs[i]
			if _, err := wl.Build(1).Run(cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	want := len(recs[0].Ops())
	if want == 0 {
		t.Fatal("recorder saw no operations")
	}
	for i, r := range recs {
		if got := len(r.Ops()); got != want {
			t.Errorf("recorder %d saw %d ops, recorder 0 saw %d — identical hermetic runs must record identically", i, got, want)
		}
	}
}
