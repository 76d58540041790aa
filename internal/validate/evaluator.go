package validate

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// evaluator is the one engine behind every query a Server answers, in
// every dialect. It holds the served snapshot, a semaphore of
// ServerOptions.Workers slots that bounds concurrent evaluations, and
// the optional cross-connection coalescer, so a dialect only decodes
// its request, asks for a precision, and encodes the float64 outputs
// it gets back.
//
// A snapshot keeps no per-call state, so every evaluation shares it. A
// hot sync freezes the new parameters and swaps the pointer
// (read-copy-update): an evaluation loads the snapshot once and
// finishes on it, so no query waits for a sync and none sees a torn
// parameter set.
type evaluator struct {
	snap  atomic.Pointer[snapshot]
	slots chan struct{}                       // one per concurrent evaluation
	coal  *coalescer[coalKey, *tensor.Tensor] // nil unless coalescing
}

// snapshot is one parameter set frozen at each hosted precision.
//
// The float32 snapshot converts at this boundary: inputs narrow to
// float32 and outputs widen back. Both directions are exact for what
// reaches it — a v3 frame's float32 values widened by the codec narrow
// back to themselves, and every float32 widens exactly — so a float32
// answer carries the bits the float32 kernels computed.
type snapshot struct {
	f64 *nn.Frozen[float64] // the bit-exact snapshot; nil on a float32-only SnapshotIP
	f32 *nn.Frozen[float32] // nil unless float32 is hosted
}

// eval evaluates xs at float32 when f32 is asked for and hosted, at
// float64 otherwise.
func (s *snapshot) eval(f32 bool, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if f32 && s.f32 != nil {
		return evalFrozen(s.f32, xs)
	}
	return evalFrozen(s.f64, xs)
}

// freeze snapshots network at float64, and at float32 too when f32 is
// set.
func freeze(network *nn.Network, f32 bool) *snapshot {
	s := &snapshot{f64: nn.Freeze[float64](network)}
	if f32 {
		s.f32 = nn.Freeze[float32](network)
	}
	return s
}

// newEvaluator serves freeze(network, f32) behind workers evaluation
// slots.
func newEvaluator(network *nn.Network, f32 bool, workers int) *evaluator {
	e := &evaluator{slots: make(chan struct{}, workers)}
	e.snap.Store(freeze(network, f32))
	return e
}

// evalFunc evaluates a request's inputs under whatever its claim
// reserved.
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
		e.slots <- struct{}{}
		defer func() { <-e.slots }()
		return e.snap.Load().eval(k.f32, xs)
	})
}

// claim reserves what one request of n inputs needs and returns its
// evaluation with the matching release. It is called before the
// request's handler starts, so a claim that blocks backpressures the
// decode loop: a single input on a coalescing evaluator takes a slot of
// the connection's semaphore sem, anything else an evaluation slot.
// The float32 snapshot answers when f32 is asked for and hosted, the
// float64 snapshot otherwise.
func (e *evaluator) claim(f32 bool, n int, sem chan struct{}) (evalFunc, func()) {
	f32 = f32 && e.snap.Load().f32 != nil
	if e.coal == nil || n != 1 {
		e.slots <- struct{}{}
		return func(xs []*tensor.Tensor) ([]*tensor.Tensor, error) { return e.snap.Load().eval(f32, xs) },
			func() { <-e.slots }
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

// SyncParamsFrom swaps in a snapshot of src at every hosted precision.
// It first makes the registry check of Network.SyncParamsFrom, so a src
// of another shape panics before anything changes. Evaluations already
// running finish on the old snapshot.
func (e *evaluator) SyncParamsFrom(src *nn.Network) {
	old := e.snap.Load()
	old.f64.CheckSync(src)
	e.snap.Store(freeze(src, old.f32 != nil))
}

// SnapshotIP adapts an in-process network to concurrent validation: it
// answers from a snapshot frozen at construction, at float64 or on the
// float32 inference path. A snapshot keeps no per-call state, so any
// number of callers may query at once; ReplayConfig.Workers bounds
// them. At float64 the answers are bit-identical to LocalIP's. At
// float32, queries narrow to float32 and the outputs widen back, the
// in-process equivalent of a v3 session against an -f32 server; the
// outputs approximate the float64 reference to rounding error, so
// suite replay against it must use ValidateOptions.Tolerance.
type SnapshotIP struct{ snap snapshot }

// NewSnapshotIP freezes network at float32 when f32 is set, at float64
// otherwise.
func NewSnapshotIP(network *nn.Network, f32 bool) *SnapshotIP {
	if f32 {
		return &SnapshotIP{snapshot{f32: nn.Freeze[float32](network)}}
	}
	return &SnapshotIP{snapshot{f64: nn.Freeze[float64](network)}}
}

// Query implements IP.
func (ip *SnapshotIP) Query(x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := ip.QueryBatch([]*tensor.Tensor{x})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// QueryBatch implements BatchIP.
func (ip *SnapshotIP) QueryBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, &QueryError{Msg: "validate: empty query batch"}
	}
	out, err := ip.snap.eval(ip.snap.f32 != nil, xs)
	if err != nil {
		return nil, &QueryError{Msg: err.Error()}
	}
	return out, nil
}

// evalFrozen runs the queries on the snapshot at its precision, each
// run of consecutive same-shaped inputs as one batched forward pass,
// whose logits rows are bit-identical to batches of one. A panic from a
// malformed input shape comes back as an error.
func evalFrozen[E tensor.Num](net *nn.Frozen[E], xs []*tensor.Tensor) (out []*tensor.Tensor, err error) {
	defer recoverQuery(&out, &err)
	out = make([]*tensor.Tensor, len(xs))
	shapeRuns(xs, func(run []*tensor.Tensor, first int) {
		batch := tensor.NewOf[E](append([]int{len(run)}, run[0].Shape()...)...)
		bd, sz := batch.Data(), run[0].Size()
		for i, x := range run {
			for j, v := range x.Data() {
				bd[i*sz+j] = E(v)
			}
		}
		logits := net.ForwardBatch(batch).F64()
		for i := range run {
			out[first+i] = logits.Sample(i)
		}
	})
	return out, nil
}

// evalOn runs the queries on the live network of a LocalIP, each run of
// consecutive same-shaped inputs as one batched forward pass, whose
// logits rows are bit-identical to batches of one. A panic from a
// malformed input shape comes back as an error, leaving the network
// usable; batch caches are released even then — a mid-stack shape
// panic happens after earlier layers already cached batch state, which
// must not stay pinning heap.
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
