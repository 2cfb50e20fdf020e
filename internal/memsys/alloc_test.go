package memsys

import (
	"testing"

	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
	"github.com/gtsc-sim/gtsc/internal/stats"
)

// allocDriver issues a fixed access pattern from every SM and ticks the
// hierarchy until all of it completes. Requests and store operands are
// built once, so any allocation during a round comes from the memory
// hierarchy itself.
type allocDriver struct {
	sys  *System
	now  uint64
	reqs [][]coherence.Request // per SM, issued in order
	next []int                 // per SM: the next request to issue
	done int
}

// allocBlocks is the pattern's footprint: twice what the shrunken L2
// holds, so every round misses, evicts dirty lines, and (for the
// inclusive TC and directory banks) stalls fills and recalls copies,
// yet small enough to stay resident in each L1.
const allocBlocks = 16

func newAllocDriver(p Protocol) *allocDriver {
	cfg := smallConfig(p)
	cfg.L1Sets, cfg.L1Ways, cfg.L1MSHRs = 8, 4, 8
	cfg.L2Sets, cfg.L2Ways = 2, 2
	// A TC lease shorter than the default keeps fills that stall on
	// leased victims (TC's inclusion rule) from dominating the run.
	cfg.TC.Lease = 50
	d := &allocDriver{sys: New(cfg, mem.NewStore(), nil), next: make([]int, cfg.NumSMs)}
	operand := &mem.Block{}
	for i := range operand.Words {
		operand.Words[i] = uint32(i + 1)
	}
	// SM 0 walks the blocks upward and SM 1 downward, each block seeing
	// a different operation from each SM, so the walks meet on blocks
	// the other SM just filled (L2 hits, TC-Strong write stalls,
	// directory invalidations) and part ways on cold ones.
	for sm := 0; sm < cfg.NumSMs; sm++ {
		var reqs []coherence.Request
		for i := 0; i < allocBlocks; i++ {
			b := i
			if sm%2 == 1 {
				b = allocBlocks - 1 - i
			}
			r := coherence.Request{
				Block: mem.BlockAddr(b), Mask: mem.WordMask(0).Set(sm), Warp: i % 4,
				Done: d.complete,
			}
			switch (b + sm) % 4 {
			case 1:
				r.Store, r.Data = true, operand
			case 3:
				r.Atomic, r.Atom, r.Data = true, mem.AtomAdd, operand
			}
			reqs = append(reqs, r)
		}
		d.reqs = append(d.reqs, reqs)
	}
	return d
}

func (d *allocDriver) complete(coherence.Completion) { d.done++ }

// round issues every SM's requests, retrying rejected ones, and ticks
// until all have completed and the hierarchy has drained.
func (d *allocDriver) round(t *testing.T) {
	clear(d.next)
	d.done = 0
	total := len(d.reqs) * allocBlocks
	for limit := d.now + 200000; d.done < total || !d.sys.Drained(); {
		d.now++
		if d.now > limit {
			t.Fatalf("round did not finish: %d of %d accesses done", d.done, total)
		}
		d.sys.Tick(d.now)
		for sm, l1 := range d.sys.L1s {
			for d.next[sm] < allocBlocks && l1.Access(&d.reqs[sm][d.next[sm]]) != coherence.Reject {
				d.next[sm]++
			}
		}
		if err := d.sys.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMessagePathAllocationFree pins the consume-and-free discipline
// for every protocol: once the message pools, miss tables and queues
// have warmed up, a round of loads, stores and atomics — with L2
// misses, dirty evictions, DRAM fills and writebacks, and each
// protocol's coherence traffic — allocates nothing.
func TestMessagePathAllocationFree(t *testing.T) {
	for _, p := range []Protocol{GTSC, TC, BL, L1NC, DIR} {
		t.Run(p.String(), func(t *testing.T) {
			d := newAllocDriver(p)
			for i := 0; i < 3; i++ {
				d.round(t)
			}
			if allocs := testing.AllocsPerRun(10, func() { d.round(t) }); allocs != 0 {
				t.Errorf("%v rounds allocate %.1f objects each, want 0", p, allocs)
			}
			// The pattern must actually reach the paths it claims to pin.
			var run stats.Run
			d.sys.Collect(&run)
			l2 := run.L2
			if l2.Hits == 0 || l2.Misses == 0 || l2.WritebackDRAM == 0 || l2.Atomics == 0 {
				t.Errorf("pattern missed a path: %+v", l2)
			}
			if p == TC && (l2.WriteStalls == 0 || l2.EvictStalls == 0) {
				t.Errorf("TC pattern never stalled a write or a fill: %+v", l2)
			}
			if p == DIR && (l2.Invalidations == 0 || l2.Recalls == 0) {
				t.Errorf("directory pattern never invalidated or recalled: %+v", l2)
			}
		})
	}
}
