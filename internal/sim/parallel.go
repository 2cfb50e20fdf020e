package sim

import (
	"sync"
	"sync/atomic"
)

// tickPool is the persistent worker pool behind the relaxed engine's
// SM domains. One pool lives for the duration of a run phase. Each
// epoch the master resets the work cursor, hands every worker the
// epoch end cycle over its one-slot channel, and claims domain indices
// off the cursor alongside them until it is exhausted; it then waits
// on the WaitGroup, which is the epoch barrier. A worker blocks on its
// channel between epochs rather than spinning, so an idle pool burns
// no CPU while the master runs the barrier exchange. The channel send
// and the WaitGroup give the happens-before edges from the master's
// writes to the workers and from the workers' writes back to the
// master's exchange, keeping the pool race-detector clean.
type tickPool struct {
	// fn is the per-item work function: it runs one domain through the
	// epoch window ending at now (see relaxed.go).
	fn func(i int, now uint64)
	n  int // work items per epoch

	cursor atomic.Int64
	start  []chan uint64 // one per pool goroutine: the epoch end cycle
	done   sync.WaitGroup
}

// newWorkPool builds a pool over n work items, spawning workers-1
// goroutines (the master is the final participant); workers must be
// >= 2.
func newWorkPool(n, workers int, fn func(i int, now uint64)) *tickPool {
	p := &tickPool{fn: fn, n: n, start: make([]chan uint64, workers-1)}
	for i := range p.start {
		p.start[i] = make(chan uint64, 1)
		go p.worker(p.start[i])
	}
	return p
}

// tick runs one parallel phase: every item runs fn at now, partitioned
// dynamically over the pool. It returns only after every item has
// completed.
func (p *tickPool) tick(now uint64) {
	p.cursor.Store(0)
	p.done.Add(len(p.start))
	for _, c := range p.start {
		c <- now
	}
	p.work(now)
	p.done.Wait()
}

// work claims and runs items until the cursor runs out.
func (p *tickPool) work(now uint64) {
	for {
		i := int(p.cursor.Add(1) - 1)
		if i >= p.n {
			return
		}
		p.fn(i, now)
	}
}

// worker runs every epoch it is handed until shutdown closes its
// channel, acknowledging each epoch and its own exit on done.
func (p *tickPool) worker(start <-chan uint64) {
	defer p.done.Done()
	for now := range start {
		p.work(now)
		p.done.Done()
	}
}

// shutdown stops the pool's goroutines and waits for them to exit.
// Only call it between epochs (never mid-tick).
func (p *tickPool) shutdown() {
	p.done.Add(len(p.start))
	for _, c := range p.start {
		close(c)
	}
	p.done.Wait()
}
