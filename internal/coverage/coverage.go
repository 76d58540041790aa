// Package coverage implements the paper's validation-coverage analysis.
//
// A parameter θ is *activated* by an input x when the gradient of the
// network output with respect to θ is nonzero (Eq. 2) — a perturbation
// of θ then propagates to the output where a black-box IP user can see
// it. For saturating activations (Tanh, Sigmoid) gradients never vanish
// exactly, so activation uses a small threshold ε (paper §IV-A).
//
// The package extracts per-input activation sets in a single backward
// pass seeded with ones over the logits (so the recorded gradients are
// ∇θ Σ_k F_k(x)), accumulates them into union coverage (Eq. 4), and also
// implements the *neuron coverage* criterion of the hardware-testing
// baseline the paper compares against (Tables II/III).
package coverage

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Config controls activation thresholds.
type Config struct {
	// Epsilon is the activation threshold on |∇θ F(x)|. Zero means
	// exact-nonzero, the right setting for ReLU networks.
	Epsilon float64
	// Relative, when set, interprets Epsilon as a fraction of the
	// sample's maximum absolute parameter gradient, making the threshold
	// scale-free across layers and samples; the practical choice for
	// Tanh/Sigmoid networks.
	Relative bool
}

// DefaultConfig returns the appropriate activation test for a network:
// exact-nonzero for ReLU-family activations, and a relative threshold
// for saturating ones. Tanh/Sigmoid gradients almost never vanish
// exactly, so the threshold must be large enough to separate parameters
// that meaningfully influence the output from near-saturated ones; 5e-2
// of the sample's maximum gradient puts training-probe coverage in the
// paper's reported range (≈40-50%% for the MNIST model).
func DefaultConfig(net *nn.Network) Config {
	for _, l := range net.LayerStack {
		if a, ok := l.(*nn.Activate); ok && a.Fn.Saturating() {
			return Config{Epsilon: 5e-2, Relative: true}
		}
	}
	return Config{}
}

// DefaultBatch is the evaluation batch size core's generators use where
// batching pays off by default: input synthesis, whose batched backward
// is input-only (core's BenchmarkSynthesisBatched takes ~20% less time
// than BenchmarkSynthesisPerSample on two workers), and which only ever
// batches the ten classes of a round. This package's extractors take an
// explicit batch argument and treat values below 2 as one sample at a
// time, each a batch of one — the right default for activation
// extraction, whose per-sample ∇θ backward dominates its cost.
// Extraction is bit-identical at any batch size, so batch knobs are
// purely about speed.
const DefaultBatch = 16

// ParamActivation returns the set of parameters activated by x: bit i is
// set when |∇θᵢ Σ_k F_k(x)| exceeds the configured threshold. The bitset
// indexes parameters in the network's flat order. It is the batched
// extraction on a batch of one.
func ParamActivation(net *nn.Network, x *tensor.Tensor, cfg Config) *bitset.Set {
	var out [1]*bitset.Set
	paramSetsBatch(net, []*tensor.Tensor{x}, cfg, out[:])
	return out[0]
}

// gradSet thresholds the gradients currently accumulated in net into an
// activation bitset. It walks the gradient slices directly — this runs
// once per candidate, so the per-scalar callback of VisitGrads would be
// pure overhead on the hot loop.
func gradSet(net *nn.Network, cfg Config) *bitset.Set {
	thresh := cfg.Epsilon
	if cfg.Relative {
		maxAbs := 0.0
		for _, p := range net.Params() {
			for _, g := range p.Grad.Data() {
				if a := math.Abs(g); a > maxAbs {
					maxAbs = a
				}
			}
		}
		thresh = cfg.Epsilon * maxAbs
	}

	set := bitset.New(net.NumParams())
	idx := 0
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data() {
			if math.Abs(g) > thresh {
				set.Set(idx)
			}
			idx++
		}
	}
	return set
}

// ParamSets computes the activation set of every sample in ds; the
// precomputation step of the greedy selector (Algorithm 1).
func ParamSets(net *nn.Network, ds *data.Dataset, cfg Config) []*bitset.Set {
	return ParamSetsParallel(net, ds, cfg, 1, 1)
}

// ParamSetsParallel is ParamSets fanned out across workers and batched
// within each worker. Each worker runs on its own clone of net (layers
// cache per-input state, so a network cannot be shared) over contiguous
// batches of up to batch samples: one batched forward pass shares the
// large per-layer GEMMs, then each sample's parameter gradients come out
// of a per-sample backward against the batch caches. Every logits row
// and every gradient is bit-identical at any batch size, so the result
// is independent of both workers and batch (batch <= 1 extracts one
// sample at a time).
func ParamSetsParallel(net *nn.Network, ds *data.Dataset, cfg Config, workers, batch int) []*bitset.Set {
	return paramSets(net, func(i int) *tensor.Tensor { return ds.Samples[i].X }, ds.Len(), cfg, workers, batch)
}

// ParamSetsOf computes the activation set of each input tensor, fanning
// out across workers and batching within each like ParamSetsParallel.
func ParamSetsOf(net *nn.Network, xs []*tensor.Tensor, cfg Config, workers, batch int) []*bitset.Set {
	return paramSets(net, func(i int) *tensor.Tensor { return xs[i] }, len(xs), cfg, workers, batch)
}

// workerBatches fans [0,n) out across workers (per-worker clones of
// net) and walks each worker's range in contiguous chunks of up to
// batch samples, gathering the chunk's inputs and handing them to fn
// together with the clone. batch <= 1 yields batches of one.
func workerBatches(net *nn.Network, input func(int) *tensor.Tensor, n, workers, batch int,
	fn func(clone *nn.Network, xs []*tensor.Tensor, start int)) {
	batch = max(batch, 1)
	workers = parallel.Effective(n, parallel.Workers(workers))
	run := func(clone *nn.Network, lo, hi int) {
		for start := lo; start < hi; start += batch {
			end := min(start+batch, hi)
			xs := make([]*tensor.Tensor, end-start)
			for j := range xs {
				xs[j] = input(start + j)
			}
			fn(clone, xs, start)
		}
	}
	if workers <= 1 {
		run(net, 0, n)
		// The serial path ran on the caller's live network; drop the
		// last batch's caches so they don't stay pinned after
		// extraction. (Worker clones just become garbage.)
		net.ReleaseBatchState()
		return
	}
	clones := workerClones(net, workers)
	parallel.For(n, workers, func(w, lo, hi int) {
		run(clones[w], lo, hi)
	})
}

func paramSets(net *nn.Network, input func(int) *tensor.Tensor, n int, cfg Config, workers, batch int) []*bitset.Set {
	sets := make([]*bitset.Set, n)
	workerBatches(net, input, n, workers, batch, func(clone *nn.Network, xs []*tensor.Tensor, start int) {
		paramSetsBatch(clone, xs, cfg, sets[start:start+len(xs)])
	})
	return sets
}

// paramSetsBatch extracts the activation set of every input in one
// batched forward pass: each sample's gradients come from
// BackwardSample against the batch caches.
func paramSetsBatch(net *nn.Network, xs []*tensor.Tensor, cfg Config, out []*bitset.Set) {
	logits := net.ForwardBatch(tensor.Stack(xs))
	// The ones seed can be shared across samples: no layer mutates the
	// output gradient handed to its backward pass.
	ones := nn.OnesLike(logits.Sample(0))
	for b := range xs {
		net.ZeroGrad()
		net.BackwardSample(b, ones)
		out[b] = gradSet(net, cfg)
	}
}

// workerClones returns one deep copy of net per worker.
func workerClones(net *nn.Network, workers int) []*nn.Network {
	clones := make([]*nn.Network, workers)
	for w := range clones {
		clones[w] = net.Clone()
	}
	return clones
}

// VC returns the validation coverage of a set of test inputs: the
// fraction of parameters activated by at least one of them (Eq. 4).
func VC(net *nn.Network, tests []*tensor.Tensor, cfg Config) float64 {
	acc := NewAccumulator(net.NumParams())
	for _, x := range tests {
		acc.Add(ParamActivation(net, x, cfg))
	}
	return acc.Coverage()
}

// Accumulator tracks union coverage across a growing validation set.
type Accumulator struct {
	covered *bitset.Set
}

// NewAccumulator returns an accumulator over n items (parameters or
// neurons).
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{covered: bitset.New(n)}
}

// Add unions s into the accumulator and returns the number of newly
// covered items (the marginal gain ΔVC·#θ of Eq. 7).
func (a *Accumulator) Add(s *bitset.Set) int {
	gain := s.AndNotCount(a.covered)
	a.covered.UnionWith(s)
	return gain
}

// Gain returns the number of items s would newly cover, without adding.
func (a *Accumulator) Gain(s *bitset.Set) int {
	return s.AndNotCount(a.covered)
}

// Covered returns the current covered count.
func (a *Accumulator) Covered() int { return a.covered.Count() }

// Coverage returns the covered fraction.
func (a *Accumulator) Coverage() float64 { return a.covered.Fraction() }

// Set returns the underlying covered set (not a copy).
func (a *Accumulator) Set() *bitset.Set { return a.covered }

// Clone returns an independent copy of the accumulator.
func (a *Accumulator) Clone() *Accumulator {
	return &Accumulator{covered: a.covered.Clone()}
}

// LayerCoverage is the covered fraction of one parameter tensor.
type LayerCoverage struct {
	Name    string
	Covered int
	Total   int
}

// Fraction returns Covered/Total.
func (lc LayerCoverage) Fraction() float64 {
	if lc.Total == 0 {
		return 0
	}
	return float64(lc.Covered) / float64(lc.Total)
}

// String implements fmt.Stringer.
func (lc LayerCoverage) String() string {
	return fmt.Sprintf("%s: %d/%d (%.1f%%)", lc.Name, lc.Covered, lc.Total, 100*lc.Fraction())
}

// PerParam breaks a covered set down by parameter tensor, for the
// per-layer coverage reports.
func PerParam(net *nn.Network, covered *bitset.Set) []LayerCoverage {
	if covered.Len() != net.NumParams() {
		panic(fmt.Sprintf("coverage: set length %d does not match %d params", covered.Len(), net.NumParams()))
	}
	var out []LayerCoverage
	idx := 0
	for _, p := range net.Params() {
		n := p.W.Size()
		c := 0
		for j := 0; j < n; j++ {
			if covered.Get(idx + j) {
				c++
			}
		}
		out = append(out, LayerCoverage{Name: p.Name, Covered: c, Total: n})
		idx += n
	}
	return out
}
