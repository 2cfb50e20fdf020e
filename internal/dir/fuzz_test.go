package dir

import (
	"testing"
	"testing/quick"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/coherence"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// newHarnessObs builds a harness with an operation observer and a tiny
// L2 (2 sets x 2 ways) so inclusion recalls and writeback races fire
// constantly under fuzzing.
func newHarnessObs(t *testing.T, nSM int, obs coherence.Observer) *harness {
	h := &harness{t: t, store: mem.NewStore()}
	h.l2 = NewL2(0, coherence.BankGeometry{Sets: 2, Ways: 2},
		coherence.SenderFunc(func(m *mem.Msg) bool { h.toL1 = append(h.toL1, m); return true }),
		coherence.SenderFunc(func(m *mem.Msg) bool { h.dram = append(h.dram, m); return true }),
		obs)
	for i := 0; i < nSM; i++ {
		h.l1s = append(h.l1s, NewL1(i, 1,
			coherence.L1Geometry{Sets: 2, Ways: 2, MSHRs: 4},
			coherence.SenderFunc(func(m *mem.Msg) bool { h.toL2 = append(h.toL2, m); return true }),
			obs))
	}
	return h
}

// TestFuzzLinearizability: random racing loads, stores and atomics
// over a tiny block pool with a tiny inclusive L2 (constant recalls,
// evictions and writeback races) must always produce a per-location
// linearizable history — the invariant invalidation-based protocols
// guarantee by construction.
func TestFuzzLinearizability(t *testing.T) {
	f := func(raw []byte) bool {
		rec := check.NewRecorder()
		h := newHarnessObs(t, 3, rec)
		var vals uint32
		i := 0
		for i+1 < len(raw) {
			burst := int(raw[i]%4) + 1
			i++
			for b := 0; b < burst && i+1 < len(raw); b++ {
				op, arg := raw[i], raw[i+1]
				i += 2
				sm := int(op) % len(h.l1s)
				warp := int(op>>2) % 4
				block := mem.BlockAddr(1 + int(arg)%6)
				word := int(arg>>4) % 4
				switch op % 5 {
				case 0, 1:
					h.load(sm, warp, block, word)
				case 2:
					vals++
					h.storeWord(sm, warp, block, word, vals)
				case 3:
					h.atomic(sm, warp, block, word, mem.AtomAdd, uint32(arg)+1)
				default:
					h.atomic(sm, warp, block, word, mem.AtomMax, uint32(arg))
				}
			}
			h.pump()
		}
		h.pump()
		if v := check.CheckPhysical(rec.Ops(), 1); len(v) > 0 {
			t.Logf("violation: %s", v[0].Error())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) atomic(sm, warp int, b mem.BlockAddr, word int, op mem.AtomicOp, operand uint32) *captured {
	out := &captured{}
	data := &mem.Block{}
	data.Words[word] = operand
	out.res = h.l1s[sm].Access(&coherence.Request{
		Block: b, Atomic: true, Atom: op, Mask: mem.WordMask(0).Set(word),
		Data: data, Warp: warp,
		Done: out.capture,
	})
	return out
}

// TestFuzzFinalState replays the observed stores in observation order
// against a reference memory and compares with the architected state
// (L1 owner copies flushed through the L2 by Flush).
func TestFuzzFinalState(t *testing.T) {
	f := func(raw []byte) bool {
		rec := check.NewRecorder()
		h := newHarnessObs(t, 3, rec)
		var vals uint32
		for i := 0; i+1 < len(raw); i += 2 {
			op, arg := raw[i], raw[i+1]
			sm := int(op) % len(h.l1s)
			warp := int(op>>2) % 4
			block := mem.BlockAddr(1 + int(arg)%4)
			word := int(arg>>4) % 4
			if op%3 == 0 {
				vals++
				h.storeWord(sm, warp, block, word, vals)
			} else {
				h.atomic(sm, warp, block, word, mem.AtomAdd, uint32(arg)%5)
			}
			if op%4 == 0 {
				h.pump()
			}
		}
		h.pump()
		for _, l1 := range h.l1s {
			l1.Flush()
		}
		h.pump()

		type wkey struct {
			b mem.BlockAddr
			w int
		}
		want := map[wkey]uint32{}
		for _, o := range rec.Ops() {
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
			var got uint32
			if data, ok := h.l2.Peek(k.b); ok {
				got = data.Words[k.w]
			} else {
				var blk mem.Block
				h.store.ReadBlock(k.b, &blk)
				got = blk.Words[k.w]
			}
			if got != v {
				t.Logf("final state mismatch at %v word %d: got %d want %d", k.b, k.w, got, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
