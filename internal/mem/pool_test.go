package mem

import "testing"

func TestPoolRecyclesMessageWithPayload(t *testing.T) {
	var p Pool
	m := p.Msg()
	*m = Msg{Type: BusFill, Block: 7, ReqID: 3}
	m.Payload().Words[5] = 42
	if m.Data.Words[5] != 42 {
		t.Fatal("Payload must attach the message's own block as Data")
	}
	p.PutMsg(m)
	again := p.Msg()
	if again != m {
		t.Fatal("Msg must hand back the freed message")
	}
	if *again != (Msg{}) {
		t.Fatalf("recycled message not zeroed: %+v", again)
	}
	if again.Payload().Words[5] != 0 {
		t.Fatal("recycled payload not zeroed")
	}
}

func TestPoolDoubleFreePanics(t *testing.T) {
	var p Pool
	m := p.Msg()
	p.PutMsg(m)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutMsg of one message must panic")
		}
	}()
	p.PutMsg(m)
}

func TestPoolKeepsAtMostPoolKeep(t *testing.T) {
	var p Pool
	for i := 0; i < poolKeep+10; i++ {
		p.PutMsg(&Msg{})
	}
	if len(p.msgs) != poolKeep {
		t.Fatalf("free list holds %d, want %d", len(p.msgs), poolKeep)
	}
}

// A message owns its payload: copies taken with SetData or Clone never
// alias the source, and freeing a message leaves an outside Data block
// untouched.
func TestMsgOwnsPayload(t *testing.T) {
	var src Block
	src.Words[0] = 9
	var p Pool
	m := p.Msg()
	m.SetData(&src)
	src.Words[0] = 10
	if m.Data.Words[0] != 9 {
		t.Fatal("SetData must copy, not alias")
	}
	c := m.Clone()
	p.PutMsg(m)
	if c.Data == m.Data || c.Data.Words[0] != 9 {
		t.Fatal("Clone must own a copy of the payload that survives the original's recycling")
	}
	p.PutMsg(c) // a clone is a live message of its own

	outside := &Block{}
	outside.Words[1] = 5
	p.PutMsg(&Msg{Data: outside})
	if outside.Words[1] != 5 {
		t.Fatal("freeing a message must not touch a block it does not own")
	}
}

func TestFreeListRecycles(t *testing.T) {
	var f FreeList[Block]
	b := f.Get()
	b.Words[0] = 1
	f.Put(b)
	if got := f.Get(); got != b || got.Words[0] != 1 {
		t.Fatal("Get must return the recycled record as the caller left it")
	}
	if f.Get() == b {
		t.Fatal("an empty free list must allocate a new record")
	}
}

// portSender accepts up to room messages.
type portSender struct {
	room int
	sent []*Msg
}

func (s *portSender) TrySend(m *Msg) bool {
	if s.room == 0 {
		return false
	}
	s.room--
	s.sent = append(s.sent, m)
	return true
}

func TestMsgQueuePostAndDrainKeepFIFO(t *testing.T) {
	var q MsgQueue
	port := &portSender{room: 1}
	a, b, c := &Msg{ReqID: 1}, &Msg{ReqID: 2}, &Msg{ReqID: 3}
	q.Post(port, a) // sent at once
	q.Post(port, b) // port full: queued
	port.room = 1
	q.Post(port, c) // must queue behind b even though the port has room
	if q.Len() != 2 || len(port.sent) != 1 {
		t.Fatalf("queued %d sent %d, want 2 and 1", q.Len(), len(port.sent))
	}
	q.Drain(port)
	if q.Len() != 1 || q.Head() != c {
		t.Fatal("Drain must stop at the first refused message")
	}
	port.room = 5
	q.Drain(port)
	if !q.Empty() || port.sent[1] != b || port.sent[2] != c {
		t.Fatal("messages must leave in FIFO order")
	}
}

// A queue that never fully drains must still reuse its backing array.
func TestMsgQueueNeverDrainingStaysBounded(t *testing.T) {
	var q MsgQueue
	m := &Msg{}
	q.Push(m)
	q.Push(m)
	for i := 0; i < 1000; i++ {
		q.Push(m)
		q.Pop()
	}
	if q.Len() != 2 || cap(q.buf) > 8 {
		t.Fatalf("len %d cap %d: backing grew with a bounded depth", q.Len(), cap(q.buf))
	}
	if allocs := testing.AllocsPerRun(100, func() { q.Push(m); q.Pop() }); allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f", allocs)
	}
}
