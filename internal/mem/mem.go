// Package mem defines the memory primitives shared by every level of
// the simulated hierarchy: byte/block addressing, cache-block payloads
// at word granularity, the backing store that models DRAM contents, and
// the coherence messages exchanged between the private L1 caches and
// the shared L2 banks (Table I of the paper plus the DRAM-side
// messages of Fig 1).
package mem

import (
	"fmt"
	"math/bits"
)

// Geometry of the simulated memory system. The paper's setup uses
// 128-byte cache lines (GPGPU-Sim default); lanes access 4-byte words.
const (
	BlockBytes    = 128
	WordBytes     = 4
	WordsPerBlock = BlockBytes / WordBytes // 32, one word per lane
	blockShift    = 7
)

// Addr is a byte address in the simulated global memory space.
type Addr uint64

// Block returns the block-aligned address containing a.
func (a Addr) Block() BlockAddr { return BlockAddr(a >> blockShift) }

// WordIndex returns the index of a's word within its block.
func (a Addr) WordIndex() int { return int(a>>2) & (WordsPerBlock - 1) }

// BlockAddr identifies one cache block (the byte address >> 7).
type BlockAddr uint64

// Addr returns the first byte address of the block.
func (b BlockAddr) Addr() Addr { return Addr(b) << blockShift }

// WordAddr returns the byte address of word i within the block.
func (b BlockAddr) WordAddr(i int) Addr { return b.Addr() + Addr(i*WordBytes) }

// String renders the block address in hex.
func (b BlockAddr) String() string { return fmt.Sprintf("blk:%#x", uint64(b)) }

// Block is the data payload of one cache line, at word granularity so
// that per-lane stores can be merged and functionally verified.
type Block struct {
	Words [WordsPerBlock]uint32
}

// WordMask selects a subset of the 32 words of a block; bit i covers
// word i. Coalesced accesses carry the mask of words their lanes touch.
type WordMask uint32

// MaskAll selects every word of a block.
const MaskAll WordMask = 0xFFFFFFFF

// Set returns m with word i selected.
func (m WordMask) Set(i int) WordMask { return m | 1<<uint(i) }

// Has reports whether word i is selected.
func (m WordMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Count returns the number of selected words.
func (m WordMask) Count() int {
	n := 0
	for v := uint32(m); v != 0; v &= v - 1 {
		n++
	}
	return n
}

// Bytes returns the number of data bytes the mask covers.
func (m WordMask) Bytes() int { return m.Count() * WordBytes }

// Merge copies the masked words of src into dst.
func Merge(dst *Block, src *Block, mask WordMask) {
	for i := 0; i < WordsPerBlock; i++ {
		if mask.Has(i) {
			dst.Words[i] = src.Words[i]
		}
	}
}

// Store is the functional backing store: the architected contents of
// the simulated global memory (what DRAM would hold). It is sparse:
// blocks live in pages of pageBlocks consecutive blocks, a page is
// allocated on the first write to any of its blocks, and a page's
// bitmap records which of its blocks have been written. Unwritten
// blocks read as zero. The zero value is an empty store.
type Store struct {
	pages   Table[BlockAddr, storePage] // by block >> pageShift
	written int                         // blocks ever written
}

// storePage is one page of the store: its blocks (2 KB) and the bitmap
// of those written, bit i for block i.
type storePage struct {
	blocks  *[pageBlocks]Block
	written uint16
}

const (
	pageShift  = 4
	pageBlocks = 1 << pageShift
)

// NewStore returns an empty backing store.
func NewStore() *Store { return &Store{} }

// ReadBlock copies the current contents of block b into out.
func (s *Store) ReadBlock(b BlockAddr, out *Block) {
	if p, ok := s.pages.Get(b >> pageShift); ok {
		*out = p.blocks[b&(pageBlocks-1)]
	} else {
		*out = Block{}
	}
}

// block returns block b for writing, allocating its page on the page's
// first write and counting the block written on its own first write.
func (s *Store) block(b BlockAddr) *Block {
	p, ok := s.pages.Get(b >> pageShift)
	if !ok {
		p.blocks = new([pageBlocks]Block)
	}
	if bit := uint16(1) << (b & (pageBlocks - 1)); p.written&bit == 0 {
		p.written |= bit
		s.written++
		s.pages.Put(b>>pageShift, p)
	}
	return &p.blocks[b&(pageBlocks-1)]
}

// WriteBlock merges the masked words of data into block b.
func (s *Store) WriteBlock(b BlockAddr, data *Block, mask WordMask) {
	Merge(s.block(b), data, mask)
}

// ReadWord returns the word at byte address a.
func (s *Store) ReadWord(a Addr) uint32 {
	b := a.Block()
	p, ok := s.pages.Get(b >> pageShift)
	if !ok {
		return 0
	}
	return p.blocks[b&(pageBlocks-1)].Words[a.WordIndex()]
}

// WriteWord sets the word at byte address a. Used by workloads to
// initialize input data before a kernel launch.
func (s *Store) WriteWord(a Addr, v uint32) {
	s.block(a.Block()).Words[a.WordIndex()] = v
}

// Blocks returns the number of blocks ever written.
func (s *Store) Blocks() int { return s.written }

// ForEachBlock visits every written block address in ascending
// order. Equivalence tests use it to enumerate the touched address
// space so they can compare two runs' architected memory (the
// L2-overlaid view, not this store's raw image) word for word.
func (s *Store) ForEachBlock(f func(BlockAddr)) {
	for _, pg := range s.pages.Keys() {
		p, _ := s.pages.Get(pg)
		for w := p.written; w != 0; w &= w - 1 {
			f(pg<<pageShift | BlockAddr(bits.TrailingZeros16(w)))
		}
	}
}
