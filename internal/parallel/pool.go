package parallel

import (
	"sync"
	"sync/atomic"
)

// Pool is a long-lived worker pool with stable worker identities. Where
// For spawns fresh goroutines on every call, a Pool keeps its workers
// alive between regions: worker w's chunks always execute on the same
// goroutine, one region at a time, so callers may pin per-worker state
// (network clones, scratch buffers) to worker ids and mutate it from
// inside the region without any synchronisation of their own. Pools are
// what the serving runtime and the training loop run on — the spawn
// cost and the per-call state re-setup of For are paid once at pool
// construction instead of once per minibatch or per request.
//
// Dispatch (For, Claim, Each) must come from one goroutine at a time;
// the pool serialises nothing between concurrent dispatchers. Close
// releases the workers; dispatching on a closed pool panics.
type Pool struct {
	tasks  []chan poolTask // one channel per worker: pinned dispatch
	done   sync.WaitGroup  // outstanding chunks of the current region
	wg     sync.WaitGroup  // live worker goroutines
	closed bool
}

type poolTask struct {
	fn     func(worker, start, end int)
	worker int
	lo, hi int
}

// NewPool starts a pool of Workers(workers) pinned worker goroutines.
func NewPool(workers int) *Pool {
	workers = Workers(workers)
	p := &Pool{tasks: make([]chan poolTask, workers)}
	for w := range p.tasks {
		// One-deep buffers let the dispatcher enqueue every chunk before
		// any worker must be scheduled, so dispatch never blocks on a
		// busy machine.
		p.tasks[w] = make(chan poolTask, 1)
		p.wg.Add(1)
		go p.worker(p.tasks[w])
	}
	return p
}

func (p *Pool) worker(tasks <-chan poolTask) {
	defer p.wg.Done()
	for t := range tasks {
		t.fn(t.worker, t.lo, t.hi)
		p.done.Done()
	}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return len(p.tasks) }

// For partitions [0,n) exactly as the package-level For does with the
// pool's worker count — Effective(n, Workers()) contiguous non-empty
// chunks, chunk w strictly before chunk w+1 — and runs chunk w on
// pinned worker w. It returns only after every chunk has finished. The
// single-chunk case runs inline on the caller's goroutine (worker id 0;
// safe, since worker 0's goroutine is idle while no region is active).
func (p *Pool) For(n int, fn func(worker, start, end int)) {
	if p.closed {
		panic("parallel: For on a closed Pool")
	}
	workers := effective(n, len(p.tasks))
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	activeWorkers.Add(int64(workers))
	defer activeWorkers.Add(-int64(workers))
	base, rem := n/workers, n%workers
	p.done.Add(workers)
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		p.tasks[w] <- poolTask{fn: fn, worker: w, lo: lo, hi: hi}
		lo = hi
	}
	p.done.Wait()
}

// Claim runs fn(worker, i) once for every i in [0,n) on the pool's
// pinned workers, handing indexes out dynamically: each of the
// Effective(n, Workers()) workers takes the next unclaimed index from
// a shared counter until none is left, so a worker that draws cheap
// items goes on to claim more of them and items of uneven cost keep
// every worker busy. Claim promises no chunk order and no mapping from
// index to worker: results go to per-index slots (out[i] = ...) and
// are combined by index after the region, never folded per worker,
// whose share of the items depends on the schedule. Per-worker pinned
// state (network clones, scratch) is as safe as under For. The
// single-worker case runs inline on the caller's goroutine as worker
// 0, in index order. Claim returns only after every item has finished.
func (p *Pool) Claim(n int, fn func(worker, i int)) {
	if p.closed {
		panic("parallel: Claim on a closed Pool")
	}
	var next atomic.Int64
	p.For(effective(n, len(p.tasks)), func(w, _, _ int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	})
}

// Each runs fn(w) once on every pinned worker goroutine concurrently
// and returns when all have finished — how per-worker pinned state is
// initialised or refreshed in place (each worker touching only its own
// slot, on its own goroutine).
func (p *Pool) Each(fn func(worker int)) {
	p.For(len(p.tasks), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Close stops the workers and waits for them to exit. It is safe to
// call more than once; dispatching after Close panics.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, c := range p.tasks {
		close(c)
	}
	p.wg.Wait()
}
