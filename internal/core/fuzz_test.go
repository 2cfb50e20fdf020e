package core

import (
	"testing"
	"testing/quick"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// newHarnessObs builds a harness whose controllers report every
// performed operation to obs (the fuzz tests' checker hook).
func newHarnessObs(t *testing.T, nSM int, cfg Config, obs coherence.Observer) *harness {
	h := &harness{t: t, store: mem.NewStore()}
	h.rc = NewResetController()
	h.l2 = NewL2(cfg, 0, coherence.BankGeometry{Sets: 8, Ways: 2},
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL1 = append(h.toL1, m); return true }),
		coherence.SenderFunc(func(m *mem.Msg) bool { h.dram = append(h.dram, m); return true }),
		obs)
	h.l2.AttachResets(h.rc)
	for i := 0; i < nSM; i++ {
		h.l1s = append(h.l1s, NewL1(cfg, i, 1,
			coherence.L1Geometry{Sets: 4, Ways: 2, MSHRs: 4, Warps: 4},
			coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); return true }),
			obs))
	}
	return h
}

// fuzzStep decodes one byte pair into an operation against a small
// block pool and issues it; bursts of operations overlap in flight
// before the harness quiesces.
func runFuzzHistory(t *testing.T, cfg Config, raw []byte) []check.Record {
	rec := check.NewRecorder()
	h := newHarnessObs(t, 3, cfg, rec)
	var vals uint32
	i := 0
	for i+1 < len(raw) {
		burst := int(raw[i]%4) + 1
		i++
		for b := 0; b < burst && i+1 < len(raw); b++ {
			op := raw[i]
			arg := raw[i+1]
			i += 2
			sm := int(op) % len(h.l1s)
			warp := int(op>>2) % 4
			block := mem.BlockAddr(1 + int(arg)%5) // 5 shared blocks
			word := int(arg>>4) % 4
			switch op % 5 {
			case 0, 1: // loads dominate, as on real GPUs
				h.load(sm, warp, block, word)
			case 2:
				vals++
				h.storeWord(sm, warp, block, word, vals)
			case 3:
				h.atomic(sm, warp, block, word, mem.AtomAdd, uint32(arg)+1)
			case 4:
				h.atomic(sm, warp, block, word, mem.AtomMax, uint32(arg))
			}
		}
		h.pump()
	}
	h.pump()
	return rec.Ops()
}

// TestFuzzTimestampOrder is the heavyweight soundness test: random
// racing loads, stores and atomics from 3 SMs x 4 warps over a tiny
// shared block pool, under several protocol configurations (including
// narrow timestamps that force overflow resets, forward-all, and
// old-copy visibility), must always produce a history that satisfies
// the paper's timestamp-ordering invariant.
func TestFuzzTimestampOrder(t *testing.T) {
	configs := map[string]Config{
		"default":    {},
		"tiny-ts":    {TSBits: 7},
		"forwardall": {ForwardAll: true},
		"oldcopy":    {KeepOldCopy: true},
		"adaptive":   {AdaptiveLease: true},
		"kitchen":    {TSBits: 9, ForwardAll: true, KeepOldCopy: true, AdaptiveLease: true},
	}
	for name, cfg := range configs {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			f := func(raw []byte) bool {
				ops := runFuzzHistory(t, cfg, raw)
				v := check.CheckTimestampOrder(ops, 1)
				if len(v) > 0 {
					t.Logf("violation under %s: %s", name, v[0].Error())
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFuzzFinalState cross-checks the architected memory after a fuzz
// history: replaying the observed stores in timestamp order against a
// reference memory must produce exactly the words the L2 holds.
func TestFuzzFinalState(t *testing.T) {
	f := func(raw []byte) bool {
		rec := check.NewRecorder()
		h := newHarnessObs(t, 3, Config{}, rec)
		var vals uint32
		for i := 0; i+1 < len(raw); i += 2 {
			op, arg := raw[i], raw[i+1]
			sm := int(op) % len(h.l1s)
			warp := int(op>>2) % 4
			block := mem.BlockAddr(1 + int(arg)%3)
			word := int(arg>>4) % 4
			if op%3 == 0 {
				vals++
				h.storeWord(sm, warp, block, word, vals)
			} else {
				h.atomic(sm, warp, block, word, mem.AtomAdd, uint32(arg)%7)
			}
			if op%4 == 0 {
				h.pump()
			}
		}
		h.pump()

		// Replay observed stores in (ts, seq) order.
		type wkey struct {
			b mem.BlockAddr
			w int
		}
		want := map[wkey]uint32{}
		ops := rec.Ops()
		// Stable sort by (TS, Seq).
		for i := 1; i < len(ops); i++ {
			for j := i; j > 0 && (ops[j].TS < ops[j-1].TS || (ops[j].TS == ops[j-1].TS && ops[j].Seq < ops[j-1].Seq)); j-- {
				ops[j], ops[j-1] = ops[j-1], ops[j]
			}
		}
		for _, o := range ops {
			if !o.Store {
				continue
			}
			for w := 0; w < 4; w++ {
				if o.Mask.Has(w) {
					want[wkey{o.Block, w}] = o.Data.Words[w]
				}
			}
		}
		for k, v := range want {
			got, ok := h.l2.Peek(k.b)
			var gv uint32
			if ok {
				gv = got.Words[k.w]
			} else {
				var blk mem.Block
				h.store.ReadBlock(k.b, &blk)
				gv = blk.Words[k.w]
			}
			if gv != v {
				t.Logf("final state mismatch at %v word %d: got %d want %d", k.b, k.w, gv, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
