package mem

// MsgType enumerates the coherence messages of Table I and Fig 1 of
// the paper. The same message vocabulary carries both G-TSC and TC
// traffic; fields that a protocol does not use stay zero and do not
// count toward the wire size.
type MsgType uint8

// Message types exchanged between L1, L2 and DRAM.
const (
	// BusRd is a read or renewal request from L1 to L2. For G-TSC it
	// carries the requester's block wts (0 on a tag miss) and warp_ts.
	BusRd MsgType = iota
	// BusWr is a write-through store request from L1 to L2, carrying
	// the store data, word mask and the writing warp's warp_ts.
	BusWr
	// BusFill is a data response from L2 to L1 (new data + lease).
	BusFill
	// BusRnw is a dataless renewal response from L2 to L1 extending
	// the lease of data the L1 already holds (G-TSC only).
	BusRnw
	// BusWrAck acknowledges a store, carrying the timestamps assigned
	// by L2 (G-TSC) or the global write completion time (TC-Weak).
	BusWrAck
	// DRAMRd is an L2 miss request to the memory partition.
	DRAMRd
	// DRAMWr writes back an evicted dirty L2 block to memory.
	DRAMWr
	// DRAMFill is the memory partition's data response to L2.
	DRAMFill
	// BusAtom is a read-modify-write request performed at the L2
	// (GPU global atomic). Carries combined per-word operands.
	BusAtom
	// BusAtomAck returns an atomic's pre-update values plus the
	// timestamps (G-TSC) or GWCT (TC-Weak) of its write half.
	BusAtomAck
	// BusGetM requests exclusive (writable) ownership of a block from
	// the directory (invalidation-based protocol only).
	BusGetM
	// BusInv tells an L1 to invalidate its copy (directory protocol).
	BusInv
	// BusInvAck acknowledges an invalidation; it carries the block
	// data when the invalidated copy was dirty.
	BusInvAck
	// BusWB writes a dirty evicted L1 block back to the L2
	// (directory protocol; G-TSC and TC L1s are write-through).
	BusWB
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case BusRd:
		return "BusRd"
	case BusWr:
		return "BusWr"
	case BusFill:
		return "BusFill"
	case BusRnw:
		return "BusRnw"
	case BusWrAck:
		return "BusWrAck"
	case DRAMRd:
		return "DRAMRd"
	case DRAMWr:
		return "DRAMWr"
	case DRAMFill:
		return "DRAMFill"
	case BusAtom:
		return "BusAtom"
	case BusAtomAck:
		return "BusAtomAck"
	case BusGetM:
		return "BusGetM"
	case BusInv:
		return "BusInv"
	case BusInvAck:
		return "BusInvAck"
	case BusWB:
		return "BusWB"
	default:
		return "Msg?"
	}
}

// NoWTS is the sentinel a BusWr carries when the storing L1 holds no
// copy of the block (write-no-allocate miss), so the L2 knows there is
// no local base version to keep consistent.
const NoWTS = ^uint64(0)

// Msg is one packet on the interconnect (or on the L2<->DRAM channel).
//
// Timestamp fields are interpreted per protocol: under G-TSC they are
// logical timestamps (wts/rts/warp_ts); under TC, RTS carries the
// lease expiry in global cycles and GWCT the write completion time.
//
// A message owns its payload: Payload and SetData point Data at a
// block stored inside the message itself, so a data-carrying message
// is a single allocation and freeing the message (Pool.PutMsg) frees
// its payload with it. Data may still point at an outside block (tests
// build messages that way); the message never frees such a block.
type Msg struct {
	Type  MsgType
	Block BlockAddr

	Src int // originating node: SM index for requests, L2 bank for responses
	Dst int // destination node

	WTS    uint64 // write timestamp (G-TSC)
	RTS    uint64 // read timestamp / lease expiry
	WarpTS uint64 // requesting warp's timestamp (G-TSC)
	GWCT   uint64 // global write completion time (TC-Weak)

	Data *Block   // payload for BusWr/BusFill/DRAM messages, nil otherwise
	Mask WordMask // valid words for write messages

	ReqID uint64   // request/response correlation token assigned by L1
	Warp  int      // issuing warp index within the SM (for acks)
	Atom  AtomicOp // operation kind for BusAtom
	Reset bool     // G-TSC timestamp-overflow reset indication
	Epoch uint64   // G-TSC timestamp epoch (increments on overflow reset)

	payload Block // the message's own data block (see Payload)
	freed   bool  // set by Pool.PutMsg, cleared by Pool.Msg
}

// Payload points Data at the message's own payload block and returns
// it, for the sender to fill in place. The block is zero on a message
// fresh from a Pool or from a composite literal, so callers can merge
// masked words into it directly.
func (m *Msg) Payload() *Block {
	m.Data = &m.payload
	return m.Data
}

// SetData copies b into the message's own payload and points Data at
// it.
func (m *Msg) SetData(b *Block) {
	m.payload = *b
	m.Data = &m.payload
}

// Clone returns an unpooled copy of m that owns a copy of its data,
// for observers (test logs, tracers) that keep a message past its
// delivery, after which the receiver recycles the original.
func (m *Msg) Clone() *Msg {
	c := *m
	c.freed = false
	if m.Data != nil {
		c.SetData(m.Data)
	}
	return &c
}

// Wire sizing. Control headers are 8 bytes; each timestamp adds 2 bytes
// (the paper shows 16-bit timestamps suffice); data adds the masked
// words. The NoC serializes packets into flits of FlitBytes.
const (
	ctrlBytes    = 8
	tsFieldBytes = 2
	// FlitBytes is the interconnect flit width (GPGPU-Sim default 32B).
	FlitBytes = 32
)

// WireBytes returns the size of the message on the interconnect.
func (m *Msg) WireBytes() int {
	n := ctrlBytes
	switch m.Type {
	case BusRd:
		n += 2 * tsFieldBytes // wts + warp_ts
	case BusWr:
		n += tsFieldBytes // warp_ts
	case BusFill:
		n += 2 * tsFieldBytes // wts + rts
	case BusRnw:
		n += tsFieldBytes // rts
	case BusWrAck:
		n += 2 * tsFieldBytes // wts + rts (or GWCT)
	case BusAtom:
		n += tsFieldBytes + 1 // warp_ts + op kind
	case BusAtomAck:
		n += 2 * tsFieldBytes
	case BusGetM, BusInv, BusInvAck:
		// control-only coherence messages
	}
	if m.Data != nil {
		if m.Type == BusWr || m.Type == DRAMWr || m.Type == BusAtom || m.Type == BusAtomAck {
			n += m.Mask.Bytes()
		} else {
			n += BlockBytes
		}
	}
	return n
}

// Flits returns the number of NoC flits the message occupies.
func (m *Msg) Flits() int {
	b := m.WireBytes()
	f := (b + FlitBytes - 1) / FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// AtomicOp is a read-modify-write operation kind, performed at the
// shared L2 bank (GPU global atomics bypass the L1 data array).
type AtomicOp uint8

// Atomic operation kinds.
const (
	// AtomAdd returns the old value and adds the operand.
	AtomAdd AtomicOp = iota
	// AtomMin returns the old value and stores min(old, operand).
	AtomMin
	// AtomMax returns the old value and stores max(old, operand).
	AtomMax
)

// String names the operation.
func (a AtomicOp) String() string {
	switch a {
	case AtomAdd:
		return "add"
	case AtomMin:
		return "min"
	case AtomMax:
		return "max"
	default:
		return "atom?"
	}
}

// Apply computes the new memory value of the atomic.
func (a AtomicOp) Apply(old, operand uint32) uint32 {
	switch a {
	case AtomAdd:
		return old + operand
	case AtomMin:
		if operand < old {
			return operand
		}
		return old
	case AtomMax:
		if operand > old {
			return operand
		}
		return old
	default:
		panic("mem: unknown atomic op")
	}
}

// Combine folds two operands targeting the same word into one (the
// warp-aggregation the coalescer performs: addition sums, min/max
// reduce). The per-lane return values are reconstructed from the
// pre-update value plus, for add, each lane's running prefix.
func (a AtomicOp) Combine(x, y uint32) uint32 {
	switch a {
	case AtomAdd:
		return x + y
	case AtomMin:
		if y < x {
			return y
		}
		return x
	case AtomMax:
		if y > x {
			return y
		}
		return x
	default:
		panic("mem: unknown atomic op")
	}
}
