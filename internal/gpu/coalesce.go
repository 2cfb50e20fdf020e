package gpu

import "github.com/gtsc-sim/gtsc/internal/mem"

// laneTarget records which lane reads/writes which word of a coalesced
// access, so load data can be scattered back to registers. For
// AtomAdd, prefix is the sum of the operands of preceding active lanes
// on the same word, reconstructing each lane's hardware return value
// from the warp-aggregated update.
type laneTarget struct {
	lane   int
	word   int
	prefix uint32
}

// coalesced is one block-granular memory access generated by the
// coalescing unit from a warp instruction.
type coalesced struct {
	block mem.BlockAddr
	mask  mem.WordMask
	lanes []laneTarget
	data  mem.Block // store values at word positions
}

// coalesce merges the active lanes' addresses of instr into the
// minimum number of block accesses, in lane encounter order — the
// per-SM coalescing unit of §II-A.
//
// The two-pass structure keeps the hot path allocation-free: pass 1
// resolves every lane's address into stack arrays and assigns block
// slots via a linear scan (at most 32 distinct blocks per warp, so a
// map buys nothing); pass 2 fills the group-owned backing arrays,
// grown once and reused across the group's recycles. The per-access
// lane lists are disjoint sub-slices of the group's shared backing —
// they escape into completion callbacks, which is safe because the
// group is only recycled after every callback has run (see accGroup).
func coalesce(g *accGroup, w *Warp, instr *Instr) []*coalesced {
	var (
		laneBlk  [WarpWidth]int // lane -> block slot (-1: inactive)
		laneWord [WarpWidth]int
		laneVal  [WarpWidth]uint32
		blocks   [WarpWidth]mem.BlockAddr // distinct blocks, encounter order
		count    [WarpWidth]int           // lanes per block slot
	)
	needVal := instr.Op == OpStore || instr.Op == OpAtomic
	nBlocks, nLanes := 0, 0
	for lane := 0; lane < WarpWidth; lane++ {
		laneBlk[lane] = -1
		t := w.Threads[lane]
		if t == nil {
			continue
		}
		addr, ok := instr.Addr(t)
		if !ok {
			continue
		}
		b := addr.Block()
		slot := -1
		for i := 0; i < nBlocks; i++ {
			if blocks[i] == b {
				slot = i
				break
			}
		}
		if slot < 0 {
			slot = nBlocks
			blocks[slot] = b
			nBlocks++
		}
		laneBlk[lane] = slot
		laneWord[lane] = addr.WordIndex()
		if needVal {
			laneVal[lane] = instr.Val(t)
		}
		count[slot]++
		nLanes++
	}
	if nBlocks == 0 {
		return nil
	}
	backing := grow(&g.accs, nBlocks)
	out := grow(&g.out, nBlocks)
	laneBacking := grow(&g.lanes, nLanes)
	off := 0
	for i := 0; i < nBlocks; i++ {
		acc := &backing[i]
		*acc = coalesced{block: blocks[i], lanes: laneBacking[off : off : off+count[i]]}
		off += count[i]
		out[i] = acc
	}
	for lane := 0; lane < WarpWidth; lane++ {
		slot := laneBlk[lane]
		if slot < 0 {
			continue
		}
		acc := &backing[slot]
		word := laneWord[lane]
		lt := laneTarget{lane: lane, word: word}
		switch instr.Op {
		case OpStore:
			acc.data.Words[word] = laneVal[lane]
		case OpAtomic:
			if acc.mask.Has(word) {
				lt.prefix = acc.data.Words[word]
				acc.data.Words[word] = instr.Atom.Combine(acc.data.Words[word], laneVal[lane])
			} else {
				acc.data.Words[word] = laneVal[lane]
			}
		}
		acc.mask = acc.mask.Set(word)
		acc.lanes = append(acc.lanes, lt)
	}
	return out
}

// grow returns (*s)[:n], enlarging the backing array only when n
// exceeds its capacity — the group-pool arrays stabilize at each SM's
// worst-case warp divergence after a few instructions, and a recycled
// warp context keeps its register arrays.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}
