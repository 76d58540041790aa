package validate

import (
	"fmt"
	"sync"
	"time"
)

// Cross-connection request coalescing. A fleet serving many small
// clients sees a stream of single-query requests on different
// connections; each alone evaluates as a forward pass on a batch of
// one, leaving the batched engine — whose per-sample bit-identity the
// suite machinery already guarantees — idle. When ServerOptions.CoalesceWindow
// is set, single-input requests of the same precision and input shape
// are gathered across connections — whatever their dialect — for up to
// the window (or until CoalesceBatch queries) into one ForwardBatch,
// and the replies fan back out per connection in each
// dialect's own framing.
//
// Invisibility is by construction: ForwardBatch output sample i is
// bit-identical to a per-sample Forward of input i (the PR 2/3
// contract the replay tests pin), and a query's failure mode depends
// only on its shape — the very thing a coalesced batch is keyed by —
// so members of one batch succeed or fail exactly as they would alone.
// Verdicts are therefore identical with coalescing on or off, on every
// dialect, which the coalescing grid test asserts over real TCP.

// defaultCoalesceBatch caps one coalesced batch when
// ServerOptions.CoalesceBatch is unset.
const defaultCoalesceBatch = 32

// coalescer gathers values submitted by concurrent handler goroutines
// under equal keys into batches for a single run call; the evaluator
// keys by precision and input shape.
type coalescer[K comparable, T any] struct {
	window   time.Duration
	maxBatch int
	run      func(K, []T) ([]T, error)

	mu      sync.Mutex
	pending map[K]*coalesceBatch[T]
}

type coalesceBatch[T any] struct {
	xs    []T
	timer *time.Timer
	done  chan struct{} // closed once outs/err are set
	outs  []T
	err   error
}

func newCoalescer[K comparable, T any](window time.Duration, maxBatch int, run func(K, []T) ([]T, error)) *coalescer[K, T] {
	return &coalescer[K, T]{
		window:   window,
		maxBatch: maxBatch,
		run:      run,
		pending:  make(map[K]*coalesceBatch[T]),
	}
}

// submit joins (or opens) the gathering batch for the given key,
// parks until the batch runs, and returns this submission's own
// output. All members of a batch share one evaluation — and, on
// failure, one error, which by the shape-keying argument above is the
// error each would have gotten alone.
func (c *coalescer[K, T]) submit(key K, x T) (T, error) {
	c.mu.Lock()
	b := c.pending[key]
	if b == nil {
		b = &coalesceBatch[T]{done: make(chan struct{})}
		c.pending[key] = b
		bb := b
		b.timer = time.AfterFunc(c.window, func() { c.flush(key, bb) }) //detlint:allow walltime(coalesce window timer: batching latency only; replay outputs are bit-identical regardless of how requests group)
	}
	idx := len(b.xs)
	b.xs = append(b.xs, x)
	full := len(b.xs) >= c.maxBatch
	if full {
		// The batch is at capacity: claim it here so no later submit
		// joins, and run it without waiting out the window.
		delete(c.pending, key)
		b.timer.Stop()
	}
	c.mu.Unlock()
	if full {
		c.exec(key, b)
	}
	<-b.done
	if b.err != nil {
		var zero T
		return zero, b.err
	}
	return b.outs[idx], nil
}

// flush is the window timer's path: claim the batch if no full-batch
// submit already did, then run it.
func (c *coalescer[K, T]) flush(key K, b *coalesceBatch[T]) {
	c.mu.Lock()
	claimed := c.pending[key] == b
	if claimed {
		delete(c.pending, key)
	}
	c.mu.Unlock()
	if claimed {
		c.exec(key, b)
	}
}

// exec runs a claimed batch exactly once and releases its members.
// b.xs is stable here: appends only happen while the batch is in the
// pending map, and claiming removed it under the same mutex.
func (c *coalescer[K, T]) exec(key K, b *coalesceBatch[T]) {
	outs, err := c.run(key, b.xs)
	if err == nil && len(outs) != len(b.xs) {
		err = fmt.Errorf("validate: coalesced batch answered %d outputs for %d queries", len(outs), len(b.xs))
	}
	b.outs, b.err = outs, err
	close(b.done)
}
