package stats

import (
	"strings"
	"testing"
)

func TestL1Add(t *testing.T) {
	a := L1Stats{Loads: 1, Hits: 2, MissCold: 3, MissExpired: 4, MissLocked: 5, Renewals: 6}
	b := a
	a.Add(&b)
	if a.Loads != 2 || a.Hits != 4 || a.Misses() != 24 || a.Renewals != 12 {
		t.Fatalf("add wrong: %+v", a)
	}
}

func TestNoCTotals(t *testing.T) {
	n := NoCStats{FlitsToL2: 3, FlitsToL1: 4}
	if n.TotalFlits() != 7 {
		t.Fatal("total flits")
	}
	n.Add(&NoCStats{FlitsToL2: 1, MsgsToL1: 2})
	if n.FlitsToL2 != 4 || n.MsgsToL1 != 2 {
		t.Fatal("add wrong")
	}
}

func TestEnergyTotal(t *testing.T) {
	e := EnergyBreakdown{L1: 1, L2: 2, NoC: 3, DRAM: 4, Core: 5, Static: 6}
	if e.Total() != 21 {
		t.Fatal("total wrong")
	}
}

func TestRunString(t *testing.T) {
	r := Run{Kernel: "K", Protocol: "G-TSC", Consistency: "RC", Cycles: 123}
	s := r.String()
	for _, want := range []string{"K", "G-TSC", "RC", "123"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in %q", want, s)
		}
	}
}

func TestSMAndL2Add(t *testing.T) {
	s := SMStats{Cycles: 1, MemStallCycles: 2, InstrIssued: 3}
	s.Add(&SMStats{Cycles: 10, MemStallCycles: 20, InstrIssued: 30, CTAsRetired: 1})
	if s.Cycles != 11 || s.MemStallCycles != 22 || s.InstrIssued != 33 || s.CTAsRetired != 1 {
		t.Fatal("SM add wrong")
	}
	l := L2Stats{Reads: 1, WriteStalls: 2}
	l.Add(&L2Stats{Reads: 4, WriteStalls: 5, EvictStalls: 6})
	if l.Reads != 5 || l.WriteStalls != 7 || l.EvictStalls != 6 {
		t.Fatal("L2 add wrong")
	}
	d := DRAMStats{Reads: 1}
	d.Add(&DRAMStats{Reads: 2, Writes: 3})
	if d.Reads != 3 || d.Writes != 3 {
		t.Fatal("DRAM add wrong")
	}
}
