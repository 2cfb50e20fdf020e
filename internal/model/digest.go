package model

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"github.com/gtsc-sim/gtsc/internal/check"
	"github.com/gtsc-sim/gtsc/internal/mem"
)

// digest canonicalizes the machine state into one 64-bit hash. It
// reuses the controllers' DigestState renderings (the same canonical
// form the checkpoint system verifies restores against), and adds the
// model-owned state: transport FIFOs, warp program counters, the
// architected store, the logical clock, and a summary of the operation
// log sufficient to decide every future invariant verdict.
//
// The log summary is what makes visited-state deduplication sound for
// the log-based checks: two states merge only if they agree on the
// per-word operation history as the checker orders it, so any future
// extension produces identical verdicts from either.
func (m *machine) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "proto=%d now=%d forced=%d\n", m.cfg.Protocol, m.now, m.forced)
	for _, l1 := range m.l1s {
		l1.DigestState(h)
	}
	for _, l2 := range m.l2s {
		l2.DigestState(h)
	}
	for sm := range m.toL2 {
		for bank := range m.toL2[sm] {
			mem.DigestMsgs(h, fmt.Sprintf("toL2[%d][%d]", sm, bank), m.toL2[sm][bank])
		}
	}
	for bank := range m.toL1 {
		for sm := range m.toL1[bank] {
			mem.DigestMsgs(h, fmt.Sprintf("toL1[%d][%d]", bank, sm), m.toL1[bank][sm])
		}
	}
	for bank := range m.dram {
		mem.DigestMsgs(h, fmt.Sprintf("dram[%d]", bank), m.dram[bank])
	}
	for _, w := range m.warps {
		fmt.Fprintf(h, "warp %d.%d pc=%d wait=%t\n", w.sm, w.warp, w.pc, w.wait)
	}
	var blk mem.Block
	for _, b := range m.blocks {
		m.store.ReadBlock(b, &blk)
		fmt.Fprintf(h, "store %#x %x\n", uint64(b), blk.Words)
	}
	m.digestLog(h)
	return h.Sum64()
}

// digestLog folds the future-relevant part of the operation log into
// the state digest.
//
// For the timestamp-ordered protocol (G-TSC) the checker sorts each
// word's operations by (TS, Seq) and validates every load against the
// latest preceding store — and a FUTURE operation can sort between two
// PAST ones (its timestamp is not bounded below by theirs), so a past
// load's verdict can still change. The whole per-word history in
// timestamp order is therefore future-relevant, and all of it is
// digested. (Histories that differ only in physical interleaving but
// agree in timestamp order still merge, which is where the state-space
// reduction comes from. Per-warp last timestamps — the warp-monotonic
// check's future-relevant state — need no extra digesting: they are
// the warp_ts values already rendered in the L1 digests.)
//
// For physically-ordered protocols (TC-Strong, DIR, BL) the checker
// orders by Seq alone, so future operations always sort last: a past
// load can never be re-judged, and the future-relevant state per word
// collapses to the latest stored value plus the inferred initial value
// while no store has been seen.
func (m *machine) digestLog(h io.Writer) {
	ops := m.rec.Ops()
	type key struct {
		block mem.BlockAddr
		word  int
	}
	if m.cfg.Protocol == GTSC {
		perWord := map[key][]check.Record{}
		for _, r := range ops {
			for w := 0; w < mem.WordsPerBlock; w++ {
				if r.Mask.Has(w) {
					k := key{r.Block, w}
					perWord[k] = append(perWord[k], r)
				}
			}
		}
		keys := make([]key, 0, len(perWord))
		for k := range perWord {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].block != keys[j].block {
				return keys[i].block < keys[j].block
			}
			return keys[i].word < keys[j].word
		})
		for _, k := range keys {
			list := perWord[k]
			sort.SliceStable(list, func(i, j int) bool {
				if list[i].TS != list[j].TS {
					return list[i].TS < list[j].TS
				}
				return list[i].Seq < list[j].Seq
			})
			fmt.Fprintf(h, "log %#x.%d", uint64(k.block), k.word)
			for _, r := range list {
				kind := "ld"
				if r.Store {
					kind = "st"
				}
				fmt.Fprintf(h, " %s:%d:%#x", kind, r.TS, r.Data.Words[k.word])
			}
			io.WriteString(h, "\n")
		}
		return
	}
	// Physical order: latest store value (or inferred init) per word.
	type wordSum struct {
		stored    bool
		cur       uint32
		initKnown bool
	}
	sums := map[key]*wordSum{}
	var keys []key
	for _, r := range ops {
		for w := 0; w < mem.WordsPerBlock; w++ {
			if !r.Mask.Has(w) {
				continue
			}
			k := key{r.Block, w}
			s := sums[k]
			if s == nil {
				s = &wordSum{}
				sums[k] = s
				keys = append(keys, k)
			}
			if r.Store {
				s.stored = true
				s.cur = r.Data.Words[w]
			} else if !s.stored && !s.initKnown {
				s.initKnown = true
				s.cur = r.Data.Words[w]
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].block != keys[j].block {
			return keys[i].block < keys[j].block
		}
		return keys[i].word < keys[j].word
	})
	for _, k := range keys {
		s := sums[k]
		fmt.Fprintf(h, "log %#x.%d st=%t init=%t cur=%#x\n",
			uint64(k.block), k.word, s.stored, s.initKnown, s.cur)
	}
}
