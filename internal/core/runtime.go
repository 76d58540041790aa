package core

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// genRuntime is the run-scoped execution state of one generator
// invocation: a persistent worker pool of Options.Parallelism workers
// and the per-worker pinned clones — one set for activation extraction
// on the full network (whose parameters never change during a run, so
// they are cloned once and never re-synced) and one for synthesis
// (whose target is a fresh residual network every round, so the clones
// are re-synced in place instead of rebuilt) — amortising clone
// construction across all the phases of the run. The generator that
// builds it closes it on return.
type genRuntime struct {
	opts  Options
	net   *nn.Network               // the full network extraction runs on
	pool  *parallel.Pool            // the run's workers
	ext   *coverage.PinnedExtractor // lazy; only built when extraction happens
	synth []*nn.Network             // lazy pinned synthesis clones
}

func newGenRuntime(net *nn.Network, opts Options) *genRuntime {
	return &genRuntime{opts: opts, net: net, pool: parallel.NewPool(opts.Parallelism)}
}

// close stops the run's workers.
func (rt *genRuntime) close() { rt.pool.Close() }

// workers is the fan-out width of this run.
func (rt *genRuntime) workers() int { return rt.pool.Workers() }

func (rt *genRuntime) extractor() *coverage.PinnedExtractor {
	if rt.ext == nil {
		rt.ext = coverage.NewPinnedExtractor(rt.net, rt.pool, rt.opts.extractionBatch())
	}
	return rt.ext
}

// paramSets extracts every training sample's activation set.
func (rt *genRuntime) paramSets(train *data.Dataset) []*bitset.Set {
	return rt.extractor().ParamSets(train, rt.opts.Coverage)
}

// paramSetsOf extracts each input's activation set on the full network.
// An activation set depends only on its input's bits, so each distinct
// input is extracted once and a repeat gets a clone of the set of the
// input it repeats. Algorithm 2 often returns repeats: a probe row that
// the residual network leaves at its zero start is one.
func (rt *genRuntime) paramSetsOf(xs []*tensor.Tensor) []*bitset.Set {
	uniq, of := distinctInputs(xs)
	sets := rt.extractor().ParamSetsOf(uniq, rt.opts.Coverage)
	out := make([]*bitset.Set, len(xs))
	given := make([]bool, len(uniq))
	for i, u := range of {
		if given[u] {
			out[i] = sets[u].Clone()
		} else {
			out[i], given[u] = sets[u], true
		}
	}
	return out
}

// distinctInputs returns the bit-distinct inputs of xs in order of
// first appearance, and for each input the index of its first
// appearance in that list.
func distinctInputs(xs []*tensor.Tensor) (uniq []*tensor.Tensor, of []int) {
	of = make([]int, len(xs))
	byHash := make(map[uint64][]int, len(xs))
	for i, x := range xs {
		h := inputHash(x)
		u := -1
		for _, j := range byHash[h] {
			if slices.Equal(uniq[j].Shape(), x.Shape()) && sameBits(uniq[j].Data(), x.Data()) {
				u = j
				break
			}
		}
		if u < 0 {
			u = len(uniq)
			uniq = append(uniq, x)
			byHash[h] = append(byHash[h], u)
		}
		of[i] = u
	}
	return uniq, of
}

// inputHash hashes x's float64 bit patterns, FNV-1a style with one
// 64-bit word per step.
func inputHash(x *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x.Data() {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

// synthesize runs one per-class synthesis round against target (a
// residual network): one input per class c in [0,classes). opts is
// passed explicitly because rounds may vary the Init mode (Gaussian
// restarts after a dry round) without touching the runtime's own
// options. The rng draws happen serially in class order — the
// identical stream to synthesising class by class — before the
// workers split the classes into contiguous chunks, each on its own
// pinned clone of target; so the inputs are bit-identical at any
// worker count and batch size.
func (rt *genRuntime) synthesize(target *nn.Network, inShape []int, classes int, opts Options, rng *rand.Rand) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, classes)
	for c := range xs {
		xs[c] = synthInit(inShape, opts, rng)
	}
	if parallel.Effective(classes, rt.pool.Workers()) <= 1 {
		runSynth(target, xs, 0, classes, opts)
		return xs
	}
	if rt.synth == nil {
		rt.synth = make([]*nn.Network, rt.pool.Workers())
		rt.pool.Each(func(w int) { rt.synth[w] = target.Clone() })
	} else {
		rt.pool.Each(func(w int) { rt.synth[w].SyncParamsFrom(target) })
	}
	rt.pool.For(classes, func(w, lo, hi int) {
		runSynth(rt.synth[w], xs, lo, hi, opts)
	})
	return xs
}
