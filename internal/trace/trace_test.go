package trace

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/gtsc-sim/gtsc/internal/gpu"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/memsys"
	"github.com/gtsc-sim/gtsc/internal/sim"
	"github.com/gtsc-sim/gtsc/internal/workload"
)

func traceRun(t *testing.T, opts ...Option) *Tracer {
	t.Helper()
	cfg := sim.DefaultConfig()
	cfg.Mem.Protocol = memsys.GTSC
	cfg.Mem.NumSMs = 4
	cfg.Mem.NumBanks = 2
	cfg.SM.Consistency = gpu.RC
	s := sim.New(cfg)
	tr := Attach(s.Sys, s.Now, opts...)
	wl, _ := workload.ByName("CC")
	if _, err := wl.Build(1).Start(s).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTracerRecordsProtocolMix(t *testing.T) {
	tr := traceRun(t)
	if len(tr.Events()) == 0 {
		t.Fatal("no events recorded")
	}
	counts := tr.Counts()
	for _, ty := range []mem.MsgType{mem.BusRd, mem.BusWr, mem.BusFill, mem.BusRnw, mem.BusWrAck} {
		if counts[ty] == 0 {
			t.Fatalf("expected %v traffic on CC under G-TSC", ty)
		}
	}
	// Events are in non-decreasing cycle order.
	var last uint64
	for _, e := range tr.Events() {
		if e.Cycle < last {
			t.Fatal("events out of order")
		}
		last = e.Cycle
	}
}

func TestTracerFilters(t *testing.T) {
	full := traceRun(t)
	someBlock := full.Events()[0].Block

	byBlock := traceRun(t, WithBlock(someBlock))
	if len(byBlock.Events()) == 0 {
		t.Fatal("block filter recorded nothing")
	}
	for _, e := range byBlock.Events() {
		if e.Block != someBlock {
			t.Fatalf("filter leaked block %v", e.Block)
		}
	}

	limited := traceRun(t, WithLimit(7))
	if len(limited.Events()) != 7 {
		t.Fatalf("limit not honoured: %d", len(limited.Events()))
	}
	// Counts keep counting past the cap.
	if limited.Counts()[mem.BusRd] <= 7 && limited.Counts()[mem.BusWr] <= 7 &&
		limited.Counts()[mem.BusRd]+limited.Counts()[mem.BusWr] <= 7 {
		t.Fatal("counts should be unfiltered")
	}

	typed := traceRun(t, WithTypes(mem.BusRnw))
	for _, e := range typed.Events() {
		if e.Type != mem.BusRnw {
			t.Fatalf("type filter leaked %v", e.Type)
		}
	}
	if len(typed.Events()) == 0 {
		t.Fatal("CC under G-TSC must produce renewals")
	}
}

func TestDumpAndSummary(t *testing.T) {
	tr := traceRun(t, WithLimit(5))
	var buf bytes.Buffer
	tr.Dump(&buf)
	if got := strings.Count(buf.String(), "\n"); got != 5 {
		t.Fatalf("dump lines: %d", got)
	}
	if !strings.Contains(buf.String(), "cycle") {
		t.Fatal("dump format wrong")
	}
	buf.Reset()
	tr.Summary(&buf)
	if !strings.Contains(buf.String(), "BusRd") {
		t.Fatal("summary missing BusRd")
	}
}

func TestEventString(t *testing.T) {
	cases := []Event{
		{Cycle: 5, Dir: ToL2, Type: mem.BusRd, Block: 3, WTS: 1, WarpTS: 9, Flits: 1},
		{Cycle: 6, Dir: ToL1, Type: mem.BusFill, Block: 3, WTS: 2, RTS: 12, Flits: 5, Data: true},
		{Cycle: 7, Dir: ToL1, Type: mem.BusRnw, Block: 3, RTS: 20, Flits: 1},
		{Cycle: 8, Dir: ToL1, Type: mem.BusWrAck, Block: 3, WTS: 13, RTS: 23, Reset: true, Flits: 1},
	}
	for _, e := range cases {
		s := e.String()
		if !strings.Contains(s, e.Type.String()) {
			t.Fatalf("missing type in %q", s)
		}
	}
	if !strings.Contains(cases[3].String(), "RESET") {
		t.Fatal("reset flag not rendered")
	}
	if !strings.Contains(cases[1].String(), "+data") {
		t.Fatal("data flag not rendered")
	}
}
