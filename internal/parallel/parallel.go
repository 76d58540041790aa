// Package parallel provides the worker-pool primitives shared by the
// tensor, coverage, core, train and experiments layers. Everything in
// the repo that fans work out across goroutines goes through For or
// Pool.Claim, so the partitioning rules are stated once and relied on
// everywhere.
//
// For (and Pool.For) splits [0,n) into contiguous, ordered,
// deterministic chunks: chunk w covers indexes strictly before chunk
// w+1, which lets callers merge per-worker results in worker order and
// obtain the same answer as a serial left-to-right scan.
//
// Pool.Claim hands indexes out one at a time to whichever worker asks
// next, which balances items of uneven cost. It gives no chunk order
// and no index-to-worker mapping, so its results go by index (out[i])
// and are combined in index order after the region, never folded per
// worker.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// activeWorkers counts the worker goroutines currently running inside
// multi-worker For regions, machine-wide. Nested fan-out (a batched GEMM
// inside a coverage worker) consults it to size itself to the share of
// the machine that is actually free instead of oversubscribing.
var activeWorkers atomic.Int64

// Active returns the number of worker goroutines currently running
// inside multi-worker For regions. Zero means no fan-out is in flight
// and a kernel may use the whole machine.
func Active() int { return int(activeWorkers.Load()) }

// Auto returns the parallelism used when a knob is left at "use the
// whole machine": runtime.NumCPU.
func Auto() int { return runtime.NumCPU() }

// Workers clamps a Parallelism knob to an effective worker count.
// Values below 1 mean serial.
func Workers(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// For partitions [0,n) into exactly Effective(n, workers) contiguous
// non-empty chunks and calls fn(worker, start, end) once per chunk,
// concurrently when more than one worker is effective. Every worker id
// in [0,Effective(n,workers)) runs exactly once — callers pre-size
// per-worker state with Effective and may read every slot after For
// returns — and chunk w covers indexes strictly before chunk w+1. The
// serial case calls fn inline, so the fast path allocates nothing. For
// returns only after every chunk has finished.
func For(n, workers int, fn func(worker, start, end int)) {
	forWorkers(n, workers, fn, true)
}

// ForUncounted is For without registering its workers in the Active
// count. Leaf kernels that size themselves from Active (the tensor GEMM
// family) fan out through it, so concurrently running sibling kernels
// see only the outer worker-pool fan-out — not each other — and each
// computes its stable fair share of the machine.
func ForUncounted(n, workers int, fn func(worker, start, end int)) {
	forWorkers(n, workers, fn, false)
}

func forWorkers(n, workers int, fn func(worker, start, end int), counted bool) {
	workers = effective(n, workers)
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	if counted {
		activeWorkers.Add(int64(workers))
		defer activeWorkers.Add(-int64(workers))
	}
	// Balanced split: base items per worker, the first rem workers take
	// one extra. workers <= n guarantees every chunk is non-empty.
	base, rem := n/workers, n%workers
	var wg sync.WaitGroup
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
}

// effective returns the worker count For will actually use for n items:
// never more workers than items, never less than one.
func effective(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Effective is the exported form of the clamp For applies, for callers
// that must pre-size per-worker state (network clones, partial sums).
func Effective(n, workers int) int { return effective(n, workers) }
