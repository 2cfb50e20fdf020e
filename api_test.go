// api_test exercises the public façade exactly as a downstream user
// would: custom kernels over the exported ISA, the workload registry,
// the invariant checker, and the experiment session.
package gtsc_test

import (
	"bytes"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc"
)

func apiConfig() gtsc.Config {
	cfg := gtsc.DefaultConfig()
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 2
	return cfg
}

func TestPublicAPICustomKernel(t *testing.T) {
	const base = gtsc.Addr(0x7000)
	cfg := apiConfig()
	cfg.Mem.Protocol = gtsc.ProtocolGTSC
	cfg.SM.Consistency = gtsc.RC
	rec := gtsc.NewRecorder()
	cfg.Observer = rec

	s := gtsc.NewSimulator(cfg)
	kernel := &gtsc.Kernel{
		Name: "api", CTAs: 2, WarpsPerCTA: 1, Regs: 3,
		Init: func(st *gtsc.Store) {
			for i := 0; i < 2*gtsc.WarpWidth; i++ {
				st.WriteWord(base+gtsc.Addr(i*4), uint32(i))
			}
		},
		ProgramFor: func(w *gtsc.Warp) gtsc.Program {
			own := func(t *gtsc.Thread) (gtsc.Addr, bool) {
				return base + gtsc.Addr(t.GTID*4), true
			}
			return gtsc.Seq(
				gtsc.Load(0, own),
				gtsc.ALU(func(t *gtsc.Thread) { t.Regs[0] *= 2 }, 0),
				gtsc.StoreOp(own, func(t *gtsc.Thread) uint32 { return t.Regs[0] }, 0),
				gtsc.Fence(),
				gtsc.Atomic(gtsc.AtomAdd, 1, func(t *gtsc.Thread) (gtsc.Addr, bool) {
					return base + 0x800, t.Lane == 0
				}, func(t *gtsc.Thread) uint32 { return 1 }),
			)
		},
	}
	run, err := s.Run(kernel)
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles == 0 {
		t.Fatal("no cycles")
	}
	for i := 0; i < 2*gtsc.WarpWidth; i++ {
		if got := s.ReadWord(base + gtsc.Addr(i*4)); got != uint32(2*i) {
			t.Fatalf("word %d: %d", i, got)
		}
	}
	if got := s.ReadWord(base + 0x800); got != 2 { // one atomic per warp (lane 0)
		t.Fatalf("atomic counter: %d", got)
	}
	if v := gtsc.CheckTimestampOrder(rec.Ops(), 3); len(v) > 0 {
		t.Fatalf("invariant violated: %v", v[0].Error())
	}
}

func TestPublicAPIRegistries(t *testing.T) {
	if len(gtsc.Workloads()) != 12 {
		t.Fatal("12 workloads expected")
	}
	if len(gtsc.CoherenceWorkloads()) != 6 || len(gtsc.NonCoherenceWorkloads()) != 6 {
		t.Fatal("6+6 split expected")
	}
	if len(gtsc.MicroWorkloads()) != 6 {
		t.Fatal("6 micros expected")
	}
	if _, ok := gtsc.WorkloadByName("CC"); !ok {
		t.Fatal("CC missing")
	}
	if _, ok := gtsc.MicroWorkloadByName("HIST"); !ok {
		t.Fatal("HIST missing")
	}
}

func TestPublicAPIWorkloadRun(t *testing.T) {
	cfg := apiConfig()
	cfg.Mem.Protocol = gtsc.ProtocolTC
	cfg.SM.Consistency = gtsc.SC
	wl, _ := gtsc.WorkloadByName("HS")
	run, err := wl.Build(1).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Protocol != "TC" || run.Consistency != "SC" {
		t.Fatalf("labels wrong: %s/%s", run.Protocol, run.Consistency)
	}
}

func TestPublicAPIEvaluation(t *testing.T) {
	cfg := gtsc.DefaultExperimentConfig()
	cfg.Scale = 1
	cfg.Machine.Mem.NumSMs = 4
	cfg.Machine.Mem.NumBanks = 2
	session := gtsc.NewExperimentSession(cfg)
	var buf bytes.Buffer
	if err := session.RunOne("fig12", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "G-TSC-RC") {
		t.Fatal("evaluation output incomplete")
	}
}
