package coverage

import (
	"repro/internal/bitset"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// PinnedExtractor runs activation extraction on a persistent
// parallel.Pool with one network clone pinned to each worker. It clones
// once at construction and reuses the clones across all the extraction
// calls made with it, such as those of a generator run, so the per-call
// cost drops to the fan-out itself. Pool worker identities are stable,
// so worker w always evaluates on clone w with no synchronisation
// beyond the pool's own.
//
// Extraction results depend only on parameters and inputs, so every
// extraction is bit-identical to ParamActivation on each input alone,
// at any worker count and batch size.
//
// A PinnedExtractor must only be used from one dispatching goroutine at
// a time (the pool's own discipline).
type PinnedExtractor struct {
	pool   *parallel.Pool
	clones []*nn.Network
	batch  int
}

// NewPinnedExtractor pins one clone of net to every worker of pool.
// batch is the per-worker evaluation batch size (values < 1 mean
// batches of one, like the batch argument of ParamSetsOf).
func NewPinnedExtractor(net *nn.Network, pool *parallel.Pool, batch int) *PinnedExtractor {
	if batch < 1 {
		batch = 1
	}
	e := &PinnedExtractor{pool: pool, clones: make([]*nn.Network, pool.Workers()), batch: batch}
	// Each worker constructs its own clone on its own goroutine; Clone
	// only reads net, so the concurrent construction is safe.
	pool.Each(func(w int) { e.clones[w] = net.Clone() })
	return e
}

// ParamSets computes the activation set of every sample in ds on the
// pinned clones.
func (e *PinnedExtractor) ParamSets(ds *data.Dataset, cfg Config) []*bitset.Set {
	xs := make([]*tensor.Tensor, ds.Len())
	for i, s := range ds.Samples {
		xs[i] = s.X
	}
	return e.ParamSetsOf(xs, cfg)
}

// ParamSetsOf computes the activation set of each input tensor on the
// pinned clones: the pool splits the inputs into contiguous ranges, and
// each worker walks its range in batches of up to the extractor's
// batch.
func (e *PinnedExtractor) ParamSetsOf(xs []*tensor.Tensor, cfg Config) []*bitset.Set {
	sets := make([]*bitset.Set, len(xs))
	e.pool.For(len(xs), func(w, lo, hi int) {
		for start := lo; start < hi; start += e.batch {
			end := min(start+e.batch, hi)
			paramSetsBatch(e.clones[w], xs[start:end], cfg, sets[start:end])
		}
	})
	return sets
}
