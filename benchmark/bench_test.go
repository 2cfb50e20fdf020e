package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/stats"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

// smallMix is a write_mix shape small enough for tests; it keeps the
// 32 CTAs that make every owned block falsely shared.
var smallMix = mixShape{
	CTAs: 32, WarpsPerCTA: 1, Ops: 20,
	ReadWords: 1024, OwnWords: 2, HotWords: 64,
	StreamWords: 2048,
}

func mustWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	wl, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return wl
}

// TestTracingNeutral runs one small cell of every workload untraced
// and traced: the decorators must not change a single statistic, must
// see the controllers' calls, and (serial cells) must never nest and
// leave non-negative engine self time.
func TestTracingNeutral(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		// The relaxed cell must really run two domain workers.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	ccp := mustWorkload(t, "CCP")
	relaxed := newCell(ccp, 2, vGTSCRC)
	relaxed.cfg.SlackCycles = relaxSlack
	relaxed.cfg.SimWorkers = 2
	cells := []cell{
		newCell(ccp, 2, vTCSC),                   // fig12
		l2StreamCells(7)[0],                      // l2_stream
		writeMixCells(smallMix, 7, 1)[0],         // write_mix, G-TSC-RC
		writeMixCells(smallMix, 7, 1)[2],         // write_mix, TC-SC
		relaxed,                                  // relaxed, 2 workers
		writeMixCells(smallMix, 7, 1)[3],         // write_mix, MESI-dir
		newCell(mustWorkload(t, "CC"), 1, vTCRC), // multi-kernel
	}
	for _, c := range cells {
		plain := runCell(c, nil, false, nil)
		if plain.err != nil {
			t.Fatalf("%s: %v", c.name, plain.err)
		}
		tr := newCellTracer(c.cfg, true)
		var spans []span
		traced := runCell(c, tr, false, &spans)
		if traced.err != nil {
			t.Fatalf("%s traced: %v", c.name, traced.err)
		}
		if !reflect.DeepEqual(plain.run, traced.run) {
			t.Errorf("%s: traced statistics differ: %d vs %d cycles", c.name, traced.run.Cycles, plain.run.Cycles)
		}
		var l1, l2 layerSpans
		l1.add(tr.l1s)
		l2.add(tr.l2s)
		if l1.access.calls == 0 || l1.tick.calls+l1.syncs == 0 || l2.deliver.calls == 0 {
			t.Errorf("%s: spans missed controller calls: %+v %+v", c.name, l1, l2)
		}
		if tr.serial {
			if tr.nested != 0 {
				t.Errorf("%s: %d controller spans nested", c.name, tr.nested)
			}
			if self := traced.simWall - tr.covered; self < 0 {
				t.Errorf("%s: negative engine self time %v", c.name, self)
			}
		} else if c.cfg.SlackCycles == 0 {
			t.Errorf("%s: exact cell traced as parallel", c.name)
		}
		if raw, _ := tr.raw(); len(raw) == 0 || len(spans) == 0 {
			t.Errorf("%s: no raw spans recorded", c.name)
		}
	}
}

// TestWriteMixVerifies runs the generator under all four protocols for
// three seeds; every run must reproduce the generator's image.
func TestWriteMixVerifies(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, c := range writeMixCells(smallMix, seed, 1) {
			if cr := runCell(c, nil, false, nil); cr.err != nil {
				t.Errorf("seed %d %s: %v", seed, c.name, cr.err)
			}
		}
	}
}

// TestWriteMixCheckCatchesCorruption corrupts one expected word of each
// region in turn; verification of a correct run must then fail.
func TestWriteMixCheckCatchesCorruption(t *testing.T) {
	m := newWriteMix(smallMix, 5)
	inst := m.instance()
	s := sim.New(simConfig(vGTSCRC))
	for _, k := range inst.Kernels {
		if _, err := s.Run(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.verify(s.ReadWord); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	for _, region := range []*[]uint32{&m.want.read, &m.want.own, &m.want.hot, &m.want.stream} {
		words := *region
		i := len(words) / 2
		words[i]++
		if err := m.verify(s.ReadWord); err == nil {
			t.Errorf("corrupted expected word %d of a %d-word region passed verification", i, len(words))
		}
		words[i]--
	}
}

// TestStreamVerifies runs a small STREAM instance and checks that its
// verifier accepts the result and rejects a corrupted expected word of
// each array.
func TestStreamVerifies(t *testing.T) {
	st := newStream(streamShape{CTAs: 16, WarpsPerCTA: 2, Words: 2048}, 3)
	inst := st.instance()
	s := sim.New(simConfig(vBL))
	for _, k := range inst.Kernels {
		if _, err := s.Run(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.verify(s.ReadWord); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}
	for _, arr := range [][]uint32{st.a, st.b, st.c} {
		arr[100]++
		if err := st.verify(s.ReadWord); err == nil {
			t.Errorf("corrupted expected word passed verification")
		}
		arr[100]--
	}
}

// layerCase is one frame of the fixed layer table: the function and
// file a profile reports, and the layer its time must land in.
type layerCase struct {
	fn, file, want string
}

// frameTable pins the layer of one hot function per file the
// simulation runs. Each file must exist and declare the function, so a
// rename fails here instead of moving time to another layer.
var frameTable = []layerCase{
	{"internal/gpu.(*SM).Tick", "internal/gpu/sm.go", "gpu"},
	{"internal/gpu.coalesce", "internal/gpu/coalesce.go", "gpu"},
	{"internal/core.(*L1).Access", "internal/core/l1.go", "l1"},
	{"internal/core.(*L2).Deliver", "internal/core/l2.go", "l2"},
	{"internal/tc.(*L1).Access", "internal/tc/l1.go", "l1"},
	{"internal/tc.(*L2).Tick", "internal/tc/l2.go", "l2"},
	{"internal/dir.(*L1).Deliver", "internal/dir/l1.go", "l1"},
	{"internal/dir.(*L2).Tick", "internal/dir/l2.go", "l2"},
	{"internal/nocoh.(*L1Simple).Access", "internal/nocoh/l1simple.go", "l1"},
	{"internal/nocoh.(*L2Plain).Deliver", "internal/nocoh/l2plain.go", "l2"},
	{"internal/noc.(*Network).Tick", "internal/noc/noc.go", "noc"},
	{"internal/dram.(*Partition).Tick", "internal/dram/dram.go", "dram"},
	{"internal/sim.(*Simulator).runPhaseEvent", "internal/sim/event.go", "engine"},
	{"internal/sched.(*Agenda).Schedule", "internal/sched/sched.go", "engine"},
	{"internal/memsys.(*System).TickDue", "internal/memsys/wakes.go", "engine"},
	{"internal/sim.(*Simulator).relaxedRunSM", "internal/sim/relaxed.go", "relaxed"},
	{"internal/sim.(*tickPool).worker", "internal/sim/parallel.go", "relaxed"},
	{"internal/memsys.(*System).RelaxedExchange", "internal/memsys/relaxed.go", "relaxed"},
}

func TestLayerMap(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range frameTable {
		fn, file := modulePath+c.fn, filepath.Join(root, c.file)
		if got := sampleLayer([]frame{{"runtime.memmove", "/go/src/runtime/memmove.s"}, {fn, file}}); got != c.want {
			t.Errorf("%s: layer %q, want %q", c.fn, got, c.want)
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v", c.fn, err)
			continue
		}
		name := c.fn[strings.LastIndex(c.fn, ".")+1:]
		if !bytes.Contains(src, []byte(" "+name+"(")) {
			t.Errorf("%s: %s declares no %s", c.fn, c.file, name)
		}
	}

	// Shared code defers to its caller; stacks without repository
	// frames are the Go runtime; unknown repository packages are other.
	stacks := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{modulePath + "internal/cache.(*Array).Lookup", "cache/tagarray.go"}, {modulePath + "internal/core.(*L1).Access", "core/l1.go"}}, "l1"},
		{[]frame{{modulePath + "internal/workload.BH.func1", "workload/set1.go"}, {modulePath + "internal/gpu.(*SM).issue", "gpu/sm.go"}}, "gpu"},
		{[]frame{{"runtime.gcBgMarkWorker", "runtime/mgc.go"}}, "runtime"},
		{[]frame{{"main.runCell", "benchmark/bench.go"}}, "workload"},
		{[]frame{{modulePath + "internal/fault.(*Injector).Draw", "fault/fault.go"}}, "other"},
		{[]frame{{modulePath + "internal/mem.Merge", "mem/mem.go"}}, "other"},
	}
	for _, s := range stacks {
		if got := sampleLayer(s.stack); got != s.want {
			t.Errorf("%s: layer %q, want %q", s.stack[0].fn, got, s.want)
		}
	}
}

// TestProfileShares profiles a few small simulations and checks the
// decoded profile attributes every sample to a declared layer.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := newCell(mustWorkload(t, "KM"), 1, vGTSCRC)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if cr := runCell(c, nil, true, nil); cr.err != nil {
			pprof.StopCPUProfile()
			t.Fatal(cr.err)
		}
	}
	pprof.StopCPUProfile()
	sh, err := shares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for l, v := range sh.layer {
		if !slices.Contains(layers, l) {
			t.Errorf("undeclared layer %q", l)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %v", sum)
	}
	if sh.layer["gpu"] == 0 || sh.phase["sm-tick"] == 0 {
		t.Errorf("no simulation samples attributed: %+v", sh)
	}
}

// TestBenchmarkJSONMetrics checks that BENCHMARK.json names exactly the
// workloads the benchmark runs and the metrics it reports in each mode,
// with the same units.
func TestBenchmarkJSONMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if !slices.Equal(wls, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wls, workloadNames)
	}
	r := &round{cells: []cellTime{{name: "c", sim: time.Second, cycles: 1, factor: 1}}, slices: []time.Duration{1, 1}}
	b := &bench{wl: &benchWorkload{}, ref: map[string]*stats.Run{}}
	sh := &profileShares{layer: map[string]float64{}, phase: map[string]float64{}}
	for _, c := range []struct {
		mode string
		want []named
		got  map[string]metric
	}{
		{"--trace 0", spec.EndToEnd, endToEnd([]*round{r})},
		{"--trace 1", spec.PerLayer, layerMetrics(b, []*round{r}, []*round{r}, sh, 0)},
	} {
		if len(c.want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", c.mode, len(c.want), len(c.got))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: metric %s (%s) reported as %+v", c.mode, w.Name, w.Unit, m)
			}
		}
	}
}

func TestWeightedQuantile(t *testing.T) {
	even := []weighted{{4, 1}, {1, 1}, {3, 1}, {2, 1}}
	skewed := []weighted{{1, 3}, {10, 1}}
	for _, c := range []struct {
		xs   []weighted
		q    float64
		want float64
	}{
		{even, 0.5, 2.5},
		{even, 0.25, 1.5},
		{even, 0.9, 4},
		{skewed, 0.5, 3.25}, // between the heavy sample's midpoint (1.5) and the light one's (3.5)
		{skewed, 0.1, 1},
	} {
		if got := weightedQuantile(c.xs, c.q); got != c.want {
			t.Errorf("q %v of %v: got %v, want %v", c.q, c.xs, got, c.want)
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig12", "--trace", "2"},
		{"--workload", "fig12", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
	}
}
