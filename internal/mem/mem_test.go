package mem

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddrBlockAndWord(t *testing.T) {
	cases := []struct {
		addr  Addr
		block BlockAddr
		word  int
	}{
		{0, 0, 0},
		{4, 0, 1},
		{124, 0, 31},
		{128, 1, 0},
		{0x1000, 0x20, 0},
		{0x1004, 0x20, 1},
	}
	for _, c := range cases {
		if got := c.addr.Block(); got != c.block {
			t.Errorf("%#x.Block() = %#x, want %#x", c.addr, got, c.block)
		}
		if got := c.addr.WordIndex(); got != c.word {
			t.Errorf("%#x.WordIndex() = %d, want %d", c.addr, got, c.word)
		}
	}
}

func TestAddrRoundTrip(t *testing.T) {
	// Property: block.WordAddr(word) inverts (Block, WordIndex) for
	// word-aligned addresses.
	f := func(raw uint64) bool {
		a := Addr(raw &^ 3) // word aligned
		b := a.Block()
		return b.WordAddr(a.WordIndex()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordMask(t *testing.T) {
	var m WordMask
	if m.Count() != 0 {
		t.Fatal("empty mask should count 0")
	}
	m = m.Set(0).Set(5).Set(31)
	if !m.Has(0) || !m.Has(5) || !m.Has(31) || m.Has(1) {
		t.Fatalf("mask membership wrong: %#x", m)
	}
	if m.Count() != 3 || m.Bytes() != 12 {
		t.Fatalf("count=%d bytes=%d", m.Count(), m.Bytes())
	}
	if MaskAll.Count() != WordsPerBlock {
		t.Fatal("MaskAll must cover the block")
	}
}

func TestWordMaskCountMatchesNaive(t *testing.T) {
	f := func(m uint32) bool {
		n := 0
		for i := 0; i < 32; i++ {
			if m&(1<<i) != 0 {
				n++
			}
		}
		return WordMask(m).Count() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	var dst, src Block
	for i := range src.Words {
		src.Words[i] = uint32(i + 100)
	}
	Merge(&dst, &src, WordMask(0).Set(3).Set(7))
	for i, v := range dst.Words {
		want := uint32(0)
		if i == 3 || i == 7 {
			want = uint32(i + 100)
		}
		if v != want {
			t.Fatalf("word %d: got %d want %d", i, v, want)
		}
	}
}

func TestStoreReadWrite(t *testing.T) {
	s := NewStore()
	var out Block
	s.ReadBlock(42, &out)
	if out != (Block{}) {
		t.Fatal("unwritten block must read zero")
	}
	s.WriteWord(0x1004, 7)
	if got := s.ReadWord(0x1004); got != 7 {
		t.Fatalf("got %d", got)
	}
	if got := s.ReadWord(0x1008); got != 0 {
		t.Fatalf("adjacent word polluted: %d", got)
	}
	var blk Block
	blk.Words[2] = 9
	s.WriteBlock(Addr(0x1000).Block(), &blk, WordMask(0).Set(2))
	if got := s.ReadWord(0x1008); got != 9 {
		t.Fatalf("masked block write failed: %d", got)
	}
	if got := s.ReadWord(0x1004); got != 7 {
		t.Fatalf("masked block write clobbered word 1: %d", got)
	}
	if s.Blocks() != 1 {
		t.Fatalf("blocks=%d", s.Blocks())
	}
}

// TestStoreSemantics pins what the store reports, whatever it keeps
// its blocks in: a block counts as written from its first write (even
// one with an empty mask) and is listed in ascending order; a block
// never written reads zero and is listed nowhere, even between written
// neighbours.
func TestStoreSemantics(t *testing.T) {
	s := NewStore()
	s.WriteWord(BlockAddr(1<<40).WordAddr(31), 0xffffffff)
	s.WriteWord(BlockAddr(0x23).WordAddr(0), 0xabc)
	s.WriteWord(BlockAddr(0x21).WordAddr(3), 7)
	var blk Block
	blk.Words[1] = 5
	s.WriteBlock(0x2f, &blk, 0)
	s.WriteBlock(0, &blk, WordMask(0).Set(1))

	var out Block
	for _, b := range []BlockAddr{0x20, 0x22, 0x24, 0x30, 1<<40 + 1} {
		out.Words[0] = 1
		s.ReadBlock(b, &out)
		if out != (Block{}) || s.ReadWord(b.WordAddr(3)) != 0 {
			t.Fatalf("unwritten block %v must read zero", b)
		}
	}
	s.ReadBlock(0x2f, &out)
	if out != (Block{}) {
		t.Fatal("an empty-mask write must leave the block zero")
	}
	if got := s.ReadWord(BlockAddr(0x21).WordAddr(3)); got != 7 {
		t.Fatalf("word read %d, want 7", got)
	}

	want := []BlockAddr{0, 0x21, 0x23, 0x2f, 1 << 40}
	var got []BlockAddr
	s.ForEachBlock(func(b BlockAddr) { got = append(got, b) })
	if s.Blocks() != len(want) || !slices.Equal(got, want) {
		t.Fatalf("Blocks()=%d ForEachBlock=%v, want %v", s.Blocks(), got, want)
	}

	var d strings.Builder
	s.DigestInto(&d)
	const digest = "blk 0x0 [0 5 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]\n" +
		"blk 0x21 [0 0 0 7 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]\n" +
		"blk 0x23 [abc 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]\n" +
		"blk 0x2f [0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0]\n" +
		"blk 0x10000000000 [0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 ffffffff]\n"
	if d.String() != digest {
		t.Fatalf("digest:\n%s\nwant:\n%s", d.String(), digest)
	}
}

func TestMsgWireSizes(t *testing.T) {
	rd := &Msg{Type: BusRd}
	if rd.WireBytes() != 12 || rd.Flits() != 1 {
		t.Fatalf("BusRd: %d bytes %d flits", rd.WireBytes(), rd.Flits())
	}
	rnw := &Msg{Type: BusRnw}
	if rnw.WireBytes() != 10 || rnw.Flits() != 1 {
		t.Fatalf("BusRnw: %d bytes %d flits", rnw.WireBytes(), rnw.Flits())
	}
	fill := &Msg{Type: BusFill, Data: &Block{}}
	if fill.WireBytes() != 12+BlockBytes {
		t.Fatalf("BusFill bytes: %d", fill.WireBytes())
	}
	if fill.Flits() != 5 { // 140B / 32B
		t.Fatalf("BusFill flits: %d", fill.Flits())
	}
	// A renewal response is much smaller than a fill — the NoC saving
	// the paper's Fig 15 builds on.
	if rnw.Flits() >= fill.Flits() {
		t.Fatal("renewal must be cheaper than fill")
	}
	wr := &Msg{Type: BusWr, Data: &Block{}, Mask: WordMask(0).Set(0).Set(1)}
	if wr.WireBytes() != 10+8 {
		t.Fatalf("BusWr bytes: %d", wr.WireBytes())
	}
	// Masked store payloads only pay for the words they carry.
	wrFull := &Msg{Type: BusWr, Data: &Block{}, Mask: MaskAll}
	if wrFull.WireBytes() <= wr.WireBytes() {
		t.Fatal("full-mask store must be larger")
	}
}

func TestMsgTypeString(t *testing.T) {
	types := []MsgType{BusRd, BusWr, BusFill, BusRnw, BusWrAck, DRAMRd, DRAMWr, DRAMFill}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" || s == "Msg?" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	if MsgType(200).String() != "Msg?" {
		t.Fatal("unknown type should stringify as Msg?")
	}
}
