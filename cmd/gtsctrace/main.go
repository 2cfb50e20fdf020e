// Command gtsctrace makes coherence protocols visible message by
// message.
//
// Without flags it replays the paper's Figure 9 walkthrough: two warps
// on two SMs exchange two shared locations (warp 0: LD X, ST Y, LD X —
// warp 1: LD Y, ST X, LD Y) and every message crossing the NoC is
// printed with its timestamps — the renewal/fill/write-ack flows of
// Figs 2–8 end to end.
//
// With -workload it traces a real benchmark instead:
//
//	gtsctrace                              # Fig 9 under G-TSC
//	gtsctrace -protocol tc                 # the same scenario under TC
//	gtsctrace -workload CC -limit 40       # first 40 messages of CC
//	gtsctrace -workload BFS -type BusRnw   # only renewals
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/trace"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

func main() {
	var (
		proto  = flag.String("protocol", "gtsc", "coherence protocol: gtsc, tc, bl, l1nc, dir")
		wlName = flag.String("workload", "", "trace a benchmark instead of the Fig 9 scenario")
		limit  = flag.Int("limit", 60, "max events to print in workload mode")
		typ    = flag.String("type", "", "only trace one message type (BusRd, BusWr, BusFill, BusRnw, BusWrAck, BusAtom, BusAtomAck)")
	)
	flag.Parse()

	cfg := sim.DefaultConfig()
	cfg.SM.Consistency = gpu.SC
	var err error
	if cfg.Mem.Protocol, err = memsys.ParseProtocol(*proto); err != nil {
		fatalf("%v", err)
	}

	var opts []trace.Option
	if *typ != "" {
		ty, ok := msgTypeByName(*typ)
		if !ok {
			fatalf("unknown message type %q", *typ)
		}
		opts = append(opts, trace.WithTypes(ty))
	}

	if *wlName != "" {
		traceWorkload(cfg, *wlName, *limit, opts)
		return
	}
	traceFig9(cfg, opts)
}

func msgTypeByName(name string) (mem.MsgType, bool) {
	for _, ty := range []mem.MsgType{
		mem.BusRd, mem.BusWr, mem.BusFill, mem.BusRnw, mem.BusWrAck,
		mem.BusAtom, mem.BusAtomAck,
	} {
		if ty.String() == name {
			return ty, true
		}
	}
	return 0, false
}

func traceWorkload(cfg sim.Config, name string, limit int, opts []trace.Option) {
	wl, ok := workload.Lookup(name)
	if !ok {
		fatalf("unknown workload %q", name)
	}
	if err := wl.CheckProtocol(cfg.Mem.Protocol); err != nil {
		fatalf("%v", err)
	}
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 2
	cfg.SM.Consistency = gpu.RC
	s := sim.New(cfg)
	tr := trace.Attach(s.Sys, s.Now, append(opts, trace.WithLimit(limit))...)

	run, err := wl.Build(1).RunOn(s)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s under %s (first %d messages):\n\n", wl.Name, cfg.Mem.Protocol, limit)
	tr.Dump(os.Stdout)
	fmt.Printf("\nmessage totals over the whole run (%d cycles):\n", run.Cycles)
	tr.Summary(os.Stdout)
}

func traceFig9(cfg sim.Config, opts []trace.Option) {
	cfg.Mem.NumSMs = 2
	cfg.Mem.NumBanks = 1
	s := sim.New(cfg)
	tr := trace.Attach(s.Sys, s.Now, opts...)

	const (
		addrX = mem.Addr(0x1000)
		addrY = mem.Addr(0x2000)
	)
	lane0 := func(a mem.Addr) func(t *gpu.Thread) (mem.Addr, bool) {
		return func(t *gpu.Thread) (mem.Addr, bool) { return a, t.Lane == 0 }
	}
	kernel := &gpu.Kernel{
		Name: "fig9", CTAs: 2, WarpsPerCTA: 1, Regs: 2, MaxCTAsPerSM: 1,
		NeedsCoherence: true,
		ProgramFor: func(w *gpu.Warp) gpu.Program {
			if w.CTA.ID == 0 {
				return gpu.Seq( // warp 0 on SM0: A1 LD X, A2 ST Y, A3 LD X
					gpu.Load(0, lane0(addrX)),
					gpu.Store(lane0(addrY), func(t *gpu.Thread) uint32 { return 0xA2 }),
					gpu.Load(1, lane0(addrX)),
				)
			}
			return gpu.Seq( // warp 1 on SM1: B1 LD Y, B2 ST X, B3 LD Y
				gpu.Load(0, lane0(addrY)),
				gpu.Store(lane0(addrX), func(t *gpu.Thread) uint32 { return 0xB2 }),
				gpu.Load(1, lane0(addrY)),
			)
		},
	}

	fmt.Printf("Fig 9 walkthrough under %s (SM0: LD X, ST Y, LD X — SM1: LD Y, ST X, LD Y)\n", cfg.Mem.Protocol)
	fmt.Printf("block %v = X, block %v = Y\n\n", addrX.Block(), addrY.Block())
	run, err := s.Run(kernel)
	if err != nil {
		fatalf("%v", err)
	}
	tr.Dump(os.Stdout)
	fmt.Printf("\nfinished in %d cycles; X=%#x Y=%#x\n",
		run.Cycles, s.ReadWord(addrX), s.ReadWord(addrY))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gtsctrace: "+format+"\n", args...)
	os.Exit(1)
}
