package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tickPool is the persistent worker pool behind the relaxed engine's
// SM domains. One pool lives for the duration of a run phase; each
// epoch the master publishes the epoch end cycle and a fresh work
// cursor, bumps the epoch counter, and every participant (the master
// included) claims domain indices off the cursor until it is
// exhausted. The master then waits for every worker's
// acknowledgement, which is the epoch barrier: a worker acks only
// after its claimed domains returned, and it re-enters the claiming
// loop only after the next epoch is published, so no worker can ever
// touch a stale cursor or cycle number. All coordination is
// sync/atomic (sequentially consistent in Go), making the pool
// race-detector clean, and the acks give the happens-before edge from
// worker writes to the master's barrier exchange. No channels or
// locks on the hot path.
type tickPool struct {
	workers int // pool goroutines, excluding the master

	// fn is the per-item work function: it runs one domain through the
	// epoch window ending at now (see relaxed.go).
	fn func(i int, now uint64)
	n  int // work items per epoch

	now    atomic.Uint64
	epoch  atomic.Uint64
	cursor atomic.Int64
	acks   atomic.Int64

	stop atomic.Bool
	wg   sync.WaitGroup
}

// newWorkPool builds a pool over n work items, spawning workers-1
// goroutines (the master is the final participant); workers must be
// >= 2.
func newWorkPool(n, workers int, fn func(i int, now uint64)) *tickPool {
	p := &tickPool{workers: workers - 1, fn: fn, n: n}
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// tick runs one parallel phase: every item runs fn at now, partitioned
// dynamically over the pool. It returns only after every item has
// completed and every worker has acknowledged the epoch.
func (p *tickPool) tick(now uint64) {
	p.now.Store(now)
	p.cursor.Store(0)
	p.acks.Store(0)
	p.epoch.Add(1) // release the workers into this cycle
	p.work(now)
	for p.acks.Load() != int64(p.workers) {
		runtime.Gosched()
	}
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

// worker processes every epoch in order: wait for the epoch to
// advance, drain the cursor, acknowledge, repeat until shutdown. The
// master publishes epoch e+1 only after collecting all acks for e, so
// epochs arrive one at a time.
func (p *tickPool) worker() {
	defer p.wg.Done()
	seen := uint64(0)
	for {
		for p.epoch.Load() == seen {
			if p.stop.Load() {
				return
			}
			runtime.Gosched()
		}
		seen++
		p.work(p.now.Load())
		p.acks.Add(1)
	}
}

// shutdown terminates the pool's goroutines and waits for them. Only
// call it between cycles (never mid-tick).
func (p *tickPool) shutdown() {
	p.stop.Store(true)
	p.wg.Wait()
}
