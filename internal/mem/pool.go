package mem

// Pool recycles messages inside one clock domain of the memory
// hierarchy. Messages flow in closed loops (L1 request -> L2 response
// -> L1, L2 DRAM read -> fill -> L2), so a controller that frees every
// message it consumes and draws every message it sends from its own
// pool reaches a steady state where the message path allocates
// nothing. A message carries its payload inside itself (see Msg), so
// one free list covers data-carrying and dataless traffic alike.
//
// Ownership discipline (consume-and-free), followed by every
// controller of every protocol: a message belongs to exactly one
// component at a time — the sender until the transport's Deliver
// callback runs, the receiver afterwards. The receiver may park it
// (an L2 miss or blocked-write queue, a directory transaction) but
// frees it exactly once, after its last use. Every consumer copies what
// it keeps: fills install the payload into a cache array, completions
// hand data to Done callbacks that must not retain it (see
// coherence.Completion). Nothing upstream may touch a message after
// delivering it.
//
// Pools are NOT thread-safe. Each pool is owned by one component: under
// relaxed sync an L1's pool is touched by its SM domain's worker
// during the epoch and by the master goroutine during the barrier
// exchange, with the epoch barrier ordering the two; L2/DRAM pools are
// master-only.
type Pool struct {
	msgs []*Msg
}

// poolKeep bounds the free list. Flows between pools are not all
// closed (a directory L1's writebacks get no response, so its bank
// gains a message per eviction), so without a cap an unbalanced
// workload would grow a free list forever; past the cap PutMsg drops
// the message for the GC.
const poolKeep = 256

// Msg returns a zeroed message.
func (p *Pool) Msg() *Msg {
	if n := len(p.msgs); n > 0 {
		m := p.msgs[n-1]
		p.msgs[n-1] = nil
		p.msgs = p.msgs[:n-1]
		m.freed = false
		return m
	}
	return &Msg{}
}

// PutMsg recycles a consumed message together with its payload.
// Zeroing happens here so Msg() hands out the exact equivalent of
// &Msg{}, and so a pooled message never pins an outside Data block for
// the GC. Freeing a message twice is an ownership bug that would hand
// one message to two owners; it panics instead.
func (p *Pool) PutMsg(m *Msg) {
	if m == nil {
		return
	}
	if m.freed {
		panic("mem: message freed twice")
	}
	*m = Msg{freed: true}
	if len(p.msgs) < poolKeep {
		p.msgs = append(p.msgs, m)
	}
}

// FreeList recycles a controller's transient-state records (miss
// entries, directory transactions, pending stores), so the hot paths
// stop allocating once the list holds the high-water count of live
// records. Put does not clear the record: the caller resets what must
// not leak into the next use, typically keeping slice capacity.
type FreeList[T any] struct {
	items []*T
}

// Get returns a recycled record, or a new zero one.
func (f *FreeList[T]) Get() *T {
	if n := len(f.items); n > 0 {
		x := f.items[n-1]
		f.items[n-1] = nil
		f.items = f.items[:n-1]
		return x
	}
	return new(T)
}

// Put recycles a record its owner no longer references.
func (f *FreeList[T]) Put(x *T) { f.items = append(f.items, x) }

// MsgQueue is a FIFO of messages that reuses its backing array: Pop
// advances a head index instead of reslicing, the array rewinds to the
// front whenever the queue empties, and a full array whose front half
// is consumed slides its live tail down instead of growing. The backing
// therefore stabilizes near the high-water depth and enqueueing stops
// allocating, even for a queue that never fully drains.
type MsgQueue struct {
	buf  []*Msg
	head int
}

// Push appends a message.
func (q *MsgQueue) Push(m *Msg) {
	if len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, m)
}

// Len returns the number of queued messages.
func (q *MsgQueue) Len() int { return len(q.buf) - q.head }

// Empty reports whether the queue is empty.
func (q *MsgQueue) Empty() bool { return q.head == len(q.buf) }

// Head returns the oldest message without removing it.
func (q *MsgQueue) Head() *Msg { return q.buf[q.head] }

// Items returns the queued messages oldest-first, as a view into the
// backing array (valid until the next Push/Pop) — for state digests
// and diagnostics.
func (q *MsgQueue) Items() []*Msg { return q.buf[q.head:] }

// Pop removes and returns the oldest message.
func (q *MsgQueue) Pop() *Msg {
	m := q.buf[q.head]
	q.buf[q.head] = nil // release for the pool/GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// Sender is the injection side of a transport (coherence.Sender
// satisfies it): TrySend returns false when the port is full.
type Sender interface {
	TrySend(m *Msg) bool
}

// Post sends m at once when nothing is queued ahead of it and the port
// accepts it, and queues it behind the backlog otherwise, preserving
// FIFO order.
func (q *MsgQueue) Post(s Sender, m *Msg) {
	if q.Empty() && s.TrySend(m) {
		return
	}
	q.Push(m)
}

// Drain sends queued messages oldest-first until the port refuses one,
// which stays at the head: the backpressure retry every controller
// runs on its tick.
func (q *MsgQueue) Drain(s Sender) {
	for !q.Empty() && s.TrySend(q.Head()) {
		q.Pop()
	}
}
