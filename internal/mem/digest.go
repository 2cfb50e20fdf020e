package mem

import (
	"fmt"
	"io"
)

// DigestInto writes a canonical rendering of the store's contents: the
// full sparse block image in ascending block-address order. The
// rendering is process-independent — it contains no pointer values —
// so equal digests across two processes mean equal memory images.
//
// Every written block is listed, even one that holds only zeros and so
// reads the same as a block never written: which blocks were written
// is an effect of the write path, and deterministic replay reproduces
// it exactly.
func (s *Store) DigestInto(w io.Writer) {
	s.ForEachBlock(func(b BlockAddr) {
		p, _ := s.pages.Get(b >> pageShift)
		fmt.Fprintf(w, "blk %#x %x\n", uint64(b), p.blocks[b&(pageBlocks-1)].Words)
	})
}

// DigestInto writes a canonical rendering of the message. Every field
// is rendered by value (the Data payload is dereferenced into its
// words), so the output is identical across processes for equal
// messages.
func (m *Msg) DigestInto(w io.Writer) {
	fmt.Fprintf(w, "msg %d %#x %d>%d w%d r%d wt%d g%d m%#x id%d wp%d a%d rs%t e%d",
		m.Type, uint64(m.Block), m.Src, m.Dst,
		m.WTS, m.RTS, m.WarpTS, m.GWCT,
		uint32(m.Mask), m.ReqID, m.Warp, m.Atom, m.Reset, m.Epoch)
	if m.Data != nil {
		fmt.Fprintf(w, " d%x", m.Data.Words)
	}
	io.WriteString(w, "\n")
}

// DigestMsgs renders an ordered message queue under a label. Queue
// order is architectural (FIFO order), so it is preserved verbatim.
func DigestMsgs(w io.Writer, label string, msgs []*Msg) {
	if len(msgs) == 0 {
		return
	}
	fmt.Fprintf(w, "%s n=%d\n", label, len(msgs))
	for _, m := range msgs {
		m.DigestInto(w)
	}
}

// DigestBlockMap visits a block-keyed table in ascending block order,
// handing each entry to render. It gives controllers a deterministic
// rendering of their transient-state tables (outstanding misses,
// blocked writes, directory busy entries) whatever their slot order.
func DigestBlockMap[V any](w io.Writer, t *Table[BlockAddr, V], render func(io.Writer, BlockAddr, V)) {
	for _, b := range t.Keys() {
		v, _ := t.Get(b)
		render(w, b, v)
	}
}

// DigestIDTable renders a request-ID-keyed in-flight table as its
// sorted IDs under a label. It is used for tables whose values hold
// completion callbacks (not renderable process-independently); the
// IDs pin the table's occupancy and correlation state, and the
// entries' architectural content is digested where it lives — in the
// messages carrying it and the warps awaiting it.
func DigestIDTable[V any](w io.Writer, label string, t *Table[uint64, V]) {
	if t.Len() == 0 {
		return
	}
	fmt.Fprintf(w, "%s %d\n", label, t.Keys())
}
