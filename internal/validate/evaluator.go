package validate

import (
	"fmt"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// evaluator is the one engine behind every query the package answers
// on pooled clones: the Server's sessions of every dialect, PooledIP
// and PooledF32IP. It owns the float64 clone fleet, the optional
// float32 fleet and the optional cross-connection coalescer, so a
// dialect only decodes its request, asks for a precision, and encodes
// the float64 outputs it gets back.
//
// The float32 fleet converts at this boundary: inputs narrow to
// float32 and outputs widen back. Both directions are exact for what
// reaches it — a v3 frame's float32 values widened by the codec
// narrow back to themselves, and every float32 widens exactly — so a
// float32 answer carries the bits the float32 kernels computed.
type evaluator struct {
	clones   *nn.ClonePool                       // float64 fleet; nil on a float32-only evaluator
	clones32 *nn.ClonePoolF32                    // float32 fleet; nil unless hosted
	coal     *coalescer[coalKey, *tensor.Tensor] // nil unless coalescing
}

// evalFunc evaluates a request's inputs on whatever its claim reserved.
type evalFunc func(xs []*tensor.Tensor) ([]*tensor.Tensor, error)

// coalKey groups coalesced queries: one batch holds one precision and
// one input shape, exactly the precondition of a batched forward pass.
type coalKey struct {
	f32   bool
	shape string
}

// coalesce turns on cross-connection coalescing of single-input
// requests: a window of gathering and at most batch queries per
// forward pass (batch <= 0 ⇒ defaultCoalesceBatch).
func (e *evaluator) coalesce(window time.Duration, batch int) {
	if batch <= 0 {
		batch = defaultCoalesceBatch
	}
	e.coal = newCoalescer(window, batch, func(k coalKey, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		run, release := e.checkout(k.f32)
		defer release()
		return run(xs)
	})
}

// claim reserves what one request of n inputs needs and returns its
// evaluation with the matching release. It is called before the
// request's handler starts, so a claim that blocks backpressures the
// decode loop: a single input on a coalescing evaluator takes a slot of
// the connection's semaphore sem, anything else checks a clone out.
// The float32 fleet answers when f32 is asked for and hosted, the
// float64 clones otherwise.
func (e *evaluator) claim(f32 bool, n int, sem chan struct{}) (evalFunc, func()) {
	f32 = f32 && e.clones32 != nil
	if e.coal == nil || n != 1 {
		return e.checkout(f32)
	}
	sem <- struct{}{}
	return func(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		out, err := e.coal.submit(coalKey{f32, fmt.Sprint(xs[0].Shape())}, xs[0])
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}, func() { <-sem }
}

// checkout claims one clone of the given precision.
func (e *evaluator) checkout(f32 bool) (evalFunc, func()) {
	if !f32 {
		clone := e.clones.Acquire()
		return func(xs []*tensor.Tensor) ([]*tensor.Tensor, error) { return evalOn(clone, xs) },
			func() { e.clones.Release(clone) }
	}
	clone := e.clones32.Acquire()
	return func(xs []*tensor.Tensor) (out []*tensor.Tensor, err error) {
		// NetF32 keeps no batch caches, so there is nothing to release;
		// shape panics come back as errors exactly as on evalOn.
		defer recoverQuery(&out, &err)
		out = make([]*tensor.Tensor, len(xs))
		shapeRuns(xs, func(run []*tensor.Tensor, first int) {
			batch := tensor.NewOf[float32](append([]int{len(run)}, run[0].Shape()...)...)
			bd, sz := batch.Data(), run[0].Size()
			for i, x := range run {
				for j, v := range x.Data() {
					bd[i*sz+j] = float32(v)
				}
			}
			logits := clone.ForwardBatch(batch).F64()
			for i := range run {
				out[first+i] = logits.Sample(i)
			}
		})
		return out, nil
	}, func() { e.clones32.Release(clone) }
}

// Query implements IP for the pooled IPs.
func (e *evaluator) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := e.QueryBatch([]*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// QueryBatch implements BatchIP for the pooled IPs: the batch runs on
// one clone of whichever fleet the evaluator hosts.
func (e *evaluator) QueryBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, &QueryError{Msg: "validate: empty query batch"}
	}
	run, release := e.checkout(e.clones32 != nil)
	defer release()
	out, err := run(xs)
	if err != nil {
		return nil, &QueryError{Msg: err.Error()}
	}
	return out, nil
}

// SyncParamsFrom refreshes every hosted fleet from src (which must
// share the served architecture): the float64 clones copy it, the
// float32 clones re-quantise it. See nn.ClonePool.SyncParamsFrom.
func (e *evaluator) SyncParamsFrom(src *nn.Network) {
	if e.clones != nil {
		e.clones.SyncParamsFrom(src)
	}
	if e.clones32 != nil {
		e.clones32.SyncParamsFrom(src)
	}
}

// PooledIP adapts an in-process network to concurrent validation. A
// bare LocalIP can serve one evaluation at a time (layers cache
// per-input state between forward and backward), so replaying a suite
// with ValidateOptions.Concurrency > 1 against it would race; PooledIP
// checks each query batch out onto a float64 clone — exactly how the
// network Server evaluates — making it safe for any number of
// concurrent callers while staying bit-identical to LocalIP.
type PooledIP struct{ *evaluator }

// NewPooledIP builds a concurrent local IP over workers clones of
// network (workers <= 0 gets one clone).
func NewPooledIP(network *nn.Network, workers int) *PooledIP {
	return &PooledIP{&evaluator{clones: nn.NewClonePool(network, workers)}}
}

// PooledF32IP is PooledIP on the float32 inference path: queries are
// quantised to float32, evaluated on a float32 clone, and the outputs
// widened back — the in-process equivalent of a v3 session against an
// -f32 server. Outputs approximate the float64 reference to rounding
// error, so suite replay against it must use ValidateOptions.Tolerance.
type PooledF32IP struct{ *evaluator }

// NewPooledF32IP builds a concurrent float32 local IP over workers
// clones converted from network (workers <= 0 gets one clone).
func NewPooledF32IP(network *nn.Network, workers int) *PooledF32IP {
	return &PooledF32IP{&evaluator{clones32: nn.NewClonePoolF32(network, workers)}}
}

// evalOn runs the queries on the net, each run of consecutive
// same-shaped inputs as one batched forward pass, whose logits rows are
// bit-identical to batches of one. A panic from a malformed input shape
// comes back as an error, leaving the network usable; batch caches are
// released even then — a mid-stack shape panic happens after earlier
// layers already cached batch state, which must not ride back into a
// clone pool pinning heap.
func evalOn(net *nn.Network, xs []*tensor.Tensor) (out []*tensor.Tensor, err error) {
	defer net.ReleaseBatchState()
	defer recoverQuery(&out, &err)
	out = make([]*tensor.Tensor, len(xs))
	shapeRuns(xs, func(run []*tensor.Tensor, first int) {
		logits := net.ForwardBatch(tensor.Stack(run))
		for i := range run {
			out[first+i] = logits.Sample(i).Clone()
		}
	})
	return out, nil
}

// shapeRuns calls fn on each maximal run of consecutive same-shaped
// inputs of xs, in order, with the index of the run's first input.
func shapeRuns(xs []*tensor.Tensor, fn func(run []*tensor.Tensor, first int)) {
	for lo := 0; lo < len(xs); {
		hi := lo + 1
		for hi < len(xs) && xs[hi].SameShape(xs[lo]) {
			hi++
		}
		fn(xs[lo:hi], lo)
		lo = hi
	}
}

// recoverQuery turns a panic of the deferring evaluation into its
// "query rejected" error.
func recoverQuery(out *[]*tensor.Tensor, err *error) {
	if r := recover(); r != nil {
		*out, *err = nil, fmt.Errorf("query rejected: %v", r)
	}
}
