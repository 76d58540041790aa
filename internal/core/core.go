// Package core implements the paper's contribution: functional test
// generation for black-box DNN IP validation.
//
// Three generators are provided, mirroring §IV:
//
//   - SelectFromTraining (Algorithm 1) greedily picks training samples
//     that activate the most currently-unactivated parameters.
//   - GradientGenerate (Algorithm 2) synthesises inputs by gradient
//     descent so they are classified correctly by the *residual*
//     network formed by the still-unactivated parameters, one synthetic
//     sample per class per round.
//   - Combined (§IV-D) runs Algorithm 1 until its marginal coverage per
//     test falls below what Algorithm 2 achieves, then switches.
//
// The neuron-coverage fuzzing baseline of the hardware-testing
// literature (NeuronFuzz; DeepXplore [10], Ma et al. [11]) and a
// random-selection baseline complete the set the evaluation compares
// (Tables II/III).
package core

import (
	"fmt"
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

// Source records where a test case came from.
type Source int

// Test case provenance.
const (
	FromTraining Source = iota
	FromSynthesis
)

// String implements fmt.Stringer.
func (s Source) String() string {
	if s == FromTraining {
		return "training"
	}
	return "synthetic"
}

// InitMode selects the starting point of Algorithm 2's input synthesis.
type InitMode int

// Synthesis initialisation modes. The paper initialises with zeros
// (Algorithm 2 line 3); Gaussian is the ablation alternative.
const (
	ZeroInit InitMode = iota
	GaussianInit
)

// Options configures the generators.
type Options struct {
	// MaxTests is Nt, the test budget (Eq. 6).
	MaxTests int
	// Coverage sets the parameter-activation threshold.
	Coverage coverage.Config
	// Eta is Algorithm 2's gradient step size η.
	Eta float64
	// Steps is Algorithm 2's iteration count T. It is an upper bound on
	// the passes: an input that one step leaves bit-for-bit unchanged is
	// a fixed point, so synthesis stops there with the result all T
	// steps would give.
	Steps int
	// Init selects zero (paper) or Gaussian initialisation.
	Init InitMode
	// Clamp keeps synthesised inputs in [0,1] (the image domain) after
	// each update when true.
	Clamp bool
	// Seed drives Gaussian initialisation and random fill-in.
	Seed int64
	// StopOnZeroGain stops Algorithm 1 early once no candidate adds
	// coverage; off by default so coverage curves span the full budget
	// as in Fig. 3.
	StopOnZeroGain bool
	// Parallelism is the number of worker goroutines candidate
	// evaluation fans out across: each generator runs a persistent
	// worker pool of this size for its whole run, with one clone of the
	// network pinned to each worker, and activation extraction and
	// per-class synthesis split their work across it. Values <= 1 run
	// serially. Every parallel path is bit-identical to the serial one
	// for a fixed Seed, so this is purely a speed knob.
	Parallelism int
	// Batch is the evaluation batch size within each worker: activation
	// extraction and synthesis stack up to Batch inputs and run the
	// batched forward/backward engine on them, one kernel call per layer
	// for the whole batch. Zero selects per-workload defaults —
	// synthesis runs at coverage.DefaultBatch (its batched backward is
	// input-only and takes ~20% less time; see coverage.DefaultBatch),
	// while activation extraction takes one input at a time (its
	// per-sample ∇θ backward dominates and measures no win from
	// batching); 1 takes one input at a time everywhere, each a batch of
	// one; larger values apply to both workloads. Results are
	// bit-identical at any batch size, so this too is purely a speed
	// knob.
	Batch int
}

// DefaultOptions returns the options used throughout the evaluation.
// Parallelism defaults to the whole machine and Batch to the
// per-workload defaults; the generators produce the same suite at any
// setting.
func DefaultOptions(maxTests int) Options {
	return Options{
		MaxTests:    maxTests,
		Eta:         0.5,
		Steps:       30,
		Clamp:       true,
		Parallelism: parallel.Auto(),
	}
}

// extractionBatch resolves the Batch knob for activation extraction:
// one input at a time unless an explicit batch was requested (negatives
// mean "unset", like zero).
func (o Options) extractionBatch() int {
	if o.Batch <= 0 {
		return 1
	}
	return o.Batch
}

// synthesisBatch resolves the Batch knob for input synthesis: the
// default evaluation batch unless an explicit batch was requested
// (negatives mean "unset", like zero).
func (o Options) synthesisBatch() int {
	if o.Batch <= 0 {
		return coverage.DefaultBatch
	}
	return o.Batch
}

func (o Options) validate() error {
	if o.MaxTests <= 0 {
		return fmt.Errorf("core: MaxTests must be positive, got %d", o.MaxTests)
	}
	return nil
}

// checkPool returns an error unless train has samples, each of its
// declared shape [C,H,W], and net takes that shape.
func checkPool(net *nn.Network, train *data.Dataset) error {
	if train.Len() == 0 {
		return fmt.Errorf("core: empty training set")
	}
	shape := []int{train.C, train.H, train.W}
	if err := checkShape(net, shape); err != nil {
		return err
	}
	for i, s := range train.Samples {
		if !slices.Equal(s.X.Shape(), shape) {
			return fmt.Errorf("core: sample %d has shape %v, but its dataset declares %v", i, s.X.Shape(), shape)
		}
	}
	return nil
}

// checkShape returns an error unless net takes inputs of shape.
func checkShape(net *nn.Network, shape []int) error {
	if !net.Takes(shape) {
		return fmt.Errorf("core: inputs have shape %v, but the network takes %v", shape, net.InputShape())
	}
	return nil
}

// Result is a generated validation set with its coverage history.
type Result struct {
	// Tests are the generated inputs in selection order.
	Tests []*tensor.Tensor
	// Labels hold the training label (selected samples) or the target
	// class (synthetic samples) of each test.
	Labels []int
	// Sources records each test's provenance.
	Sources []Source
	// Curve[i] is the validation coverage after i+1 tests (Eq. 4).
	Curve []float64
	// SwitchPoint is the index of the first synthetic test, or -1 when
	// Algorithm 2 never produced one.
	SwitchPoint int
	// Covered is the final activated-parameter set of the whole suite;
	// per-layer breakdowns come from coverage.PerParam.
	Covered *bitset.Set
}

// FinalCoverage returns the coverage achieved by the full set.
func (r *Result) FinalCoverage() float64 {
	if len(r.Curve) == 0 {
		return 0
	}
	return r.Curve[len(r.Curve)-1]
}

// add appends one test and its coverage to the result.
func (r *Result) add(x *tensor.Tensor, label int, src Source, cov float64) {
	r.Tests = append(r.Tests, x)
	r.Labels = append(r.Labels, label)
	r.Sources = append(r.Sources, src)
	r.Curve = append(r.Curve, cov)
}

// SelectFromTraining implements Algorithm 1: iteratively add the
// training sample with the largest marginal validation-coverage gain
// (Eq. 7). Per-sample activation sets are computed once up front (fanned
// out across opts.Parallelism workers, batched within each); the greedy
// iterations then run on a lazy-greedy priority queue whose picks are
// bit-identical to a serial left-to-right rescan.
func SelectFromTraining(net *nn.Network, train *data.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := checkPool(net, train); err != nil {
		return nil, err
	}
	rt := newGenRuntime(net, opts)
	defer rt.close()
	sets := rt.paramSets(train)
	acc := coverage.NewAccumulator(net.NumParams())
	used := make([]bool, train.Len())
	scan := newGreedyScanner(sets, acc, rt.workers())
	res := &Result{SwitchPoint: -1}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := scan.next(acc, used)
		if best < 0 {
			break // training set exhausted
		}
		if bestGain == 0 && opts.StopOnZeroGain {
			break
		}
		used[best] = true
		acc.Add(sets[best])
		res.add(train.Samples[best].X, train.Samples[best].Label, FromTraining, acc.Coverage())
	}
	res.Covered = acc.Set()
	return res, nil
}

// bestCandidateRange is the serial left-to-right reference scan over
// [lo,hi): the unused candidate with the largest gain, ties to the
// lowest index. The greedy scanner must match it pick for pick; tests
// hold the two against each other.
func bestCandidateRange(sets []*bitset.Set, used []bool, acc *coverage.Accumulator, lo, hi int) (int, int) {
	best, bestGain := -1, -1
	for i := lo; i < hi; i++ {
		if used[i] {
			continue
		}
		if g := acc.Gain(sets[i]); g > bestGain {
			best, bestGain = i, g
		}
	}
	return best, bestGain
}

// residualNet returns a copy of net whose *activated* parameters are
// zeroed, leaving only the still-unactivated parameters — the "network
// consisting of the un-activated parameters" that Algorithm 2 targets.
func residualNet(net *nn.Network, covered *bitset.Set) *nn.Network {
	vals := net.CopyParams()
	for i := range vals {
		if covered.Get(i) {
			vals[i] = 0
		}
	}
	clone := net.CloneArchitecture()
	clone.SetParams(vals)
	return clone
}

// Synthesize runs Algorithm 2's inner loop (lines 5–11): T gradient
// steps on the input so that target classifies it as class label,
// starting from zeros (paper) or Gaussian noise. T is an upper bound:
// the loop stops at the first step that leaves the input bit-for-bit
// unchanged, and the result is the same as after all T steps. The input
// runs as a batch of one.
func Synthesize(target *nn.Network, inShape []int, label int, opts Options, rng *rand.Rand) *tensor.Tensor {
	x := synthInit(inShape, opts, rng)
	synthStepsBatch(target, []*tensor.Tensor{x}, label, opts)
	return x
}

// synthInit returns Algorithm 2's starting input, consuming rng exactly
// when (and only when) the serial path would.
func synthInit(inShape []int, opts Options, rng *rand.Rand) *tensor.Tensor {
	x := tensor.New(inShape...)
	if opts.Init == GaussianInit {
		x.FillNormal(rng, 0.5, 0.25)
		x.Clamp(0, 1)
	}
	return x
}

// synthStarts draws one round's n starting inputs, input c targeting
// class c, serially in class order: the identical rng stream to
// synthesising class by class.
func synthStarts(inShape []int, n int, opts Options, rng *rand.Rand) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for c := range xs {
		xs[c] = synthInit(inShape, opts, rng)
	}
	return xs
}

// synthStepsBatch runs the T gradient steps of Algorithm 2 on a stack
// of inputs simultaneously, xs[i] targeting class firstLabel+i, and
// writes the results back into xs. Each step is one batched
// forward/backward pass, so the per-class matrix products fuse into
// large per-layer GEMMs; every input row evolves by exactly the
// operation sequence it gets as a batch of one, so the synthesised
// inputs are bit-identical at any batch size. It mutates target's layer
// caches, so concurrent callers need their own clone of target.
//
// A step is a pure function of a row's bits (η is constant and there
// is no momentum), so a step that leaves the whole batch bit-for-bit
// unchanged leaves every row at a fixed point that would repeat itself
// through step T: the loop stops there, with the same result. A row
// that stops before the others stays in the batch and keeps its bits.
func synthStepsBatch(target *nn.Network, xs []*tensor.Tensor, firstLabel int, opts Options) {
	x := tensor.Stack(xs)
	labels := make([]int, len(xs))
	for i := range labels {
		labels[i] = firstLabel + i
	}
	prev := make([]float64, x.Size())
	for t := 0; t < opts.Steps; t++ {
		copy(prev, x.Data())
		logits := target.ForwardBatch(x)
		_, dLogits := nn.SoftmaxCrossEntropyBatch(logits, labels)
		// Synthesis never reads parameter gradients, so the input-only
		// backward skips the dW/db work entirely; the dx rows are
		// bit-identical to the full backward's.
		dx := target.BackwardBatchInput(dLogits)
		x.AddScaled(-opts.Eta, dx)
		if opts.Clamp {
			x.Clamp(0, 1)
		}
		if sameBits(prev, x.Data()) {
			break
		}
	}
	sz := xs[0].Size()
	for i := range xs {
		copy(xs[i].Data(), x.Data()[i*sz:(i+1)*sz])
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// so -0 differs from +0 and a NaN equals only its own bits: a step's
// result depends on its input's bits, not on its values.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runSynth drives the synthesis of xs[lo:hi] on net (xs[c] targeting
// class c), batching up to opts.synthesisBatch() classes per pass; a
// one-class chunk is a batch of one.
func runSynth(net *nn.Network, xs []*tensor.Tensor, lo, hi int, opts Options) {
	bsz := opts.synthesisBatch()
	for s := lo; s < hi; s += bsz {
		synthStepsBatch(net, xs[s:min(s+bsz, hi)], s, opts)
	}
}

// GradientGenerate implements Algorithm 2: per round, synthesise one
// input per class against the residual network of still-unactivated
// parameters, add all k to the validation set, and repeat until the
// budget is reached. Coverage is always measured on the full network.
func GradientGenerate(net *nn.Network, inShape []int, classes int, opts Options) (*Result, error) {
	return SynthesisFrom(net, inShape, classes, opts, nil)
}

// SynthesisFrom runs Algorithm 2 starting from an existing covered set
// (nil means empty); the building block of the fixed-switch-point
// ablation, where Algorithm 1's coverage seeds the synthesis phase.
func SynthesisFrom(net *nn.Network, inShape []int, classes int, opts Options, start *bitset.Set) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if classes <= 0 {
		return nil, fmt.Errorf("core: classes must be positive, got %d", classes)
	}
	if err := checkShape(net, inShape); err != nil {
		return nil, err
	}
	rt := newGenRuntime(net, opts)
	defer rt.close()
	return rt.synthesisFrom(inShape, classes, opts, start), nil
}

// synthesisFrom is SynthesisFrom on the run's workers, with opts in
// place of the runtime's own (Combined's tail has a smaller budget).
func (rt *genRuntime) synthesisFrom(inShape []int, classes int, opts Options, start *bitset.Set) *Result {
	net := rt.net
	rng := rand.New(rand.NewSource(opts.Seed))
	acc := coverage.NewAccumulator(net.NumParams())
	if start != nil {
		acc.Add(start)
	}
	res := &Result{SwitchPoint: 0}

	// With zero initialisation, a round whose coverage does not grow
	// would regenerate exactly the same inputs forever (same start,
	// same residual). After a dry round the initialisation switches to
	// Gaussian restarts, so Algorithm 2 keeps exploring new basins and
	// the coverage keeps climbing as in the paper's Fig. 3 instead of
	// stalling.
	dry := false
	for len(res.Tests) < opts.MaxTests {
		residual := residualNet(net, acc.Set())
		roundOpts := opts
		if dry && opts.Init == ZeroInit {
			roundOpts.Init = GaussianInit
		}
		// One round synthesises classes inputs, truncated to the budget
		// exactly as the serial per-class loop would be; the synthesis and
		// the full-network activation extraction both fan out across the
		// worker pool, and the accumulator merge stays in class order.
		take := min(classes, opts.MaxTests-len(res.Tests))
		xs := synthStarts(inShape, take, roundOpts, rng)
		rt.synthesize(residual, xs, roundOpts)
		sets := rt.paramSetsOf(xs)
		roundGain := 0
		for c := 0; c < take; c++ {
			roundGain += acc.Add(sets[c])
			res.add(xs[c], c, FromSynthesis, acc.Coverage())
		}
		dry = roundGain == 0
	}
	res.Covered = acc.Set()
	return res
}

// Combined implements §IV-D: Algorithm 1 until its next marginal gain
// per test is beaten by Algorithm 2's expected gain per test (probed on
// the current residual network), then Algorithm 2 for the rest of the
// budget. The probe batch is reused as the first synthetic round on
// switching, so no synthesis work is wasted at the switch point. A
// probe runs only where it could win: a greedy pick whose gain reaches
// the most a probe could add per test (the uncovered parameter count
// over the class count) is taken without one, and the result is the
// one probing before every pick gives.
func Combined(net *nn.Network, train *data.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := checkPool(net, train); err != nil {
		return nil, err
	}
	classes := train.Classes
	if classes <= 0 {
		return nil, fmt.Errorf("core: classes must be positive, got %d", classes)
	}
	inShape := []int{train.C, train.H, train.W}
	rng := rand.New(rand.NewSource(opts.Seed))

	rt := newGenRuntime(net, opts)
	defer rt.close()
	sets := rt.paramSets(train)
	acc := coverage.NewAccumulator(net.NumParams())
	used := make([]bool, train.Len())
	scan := newGreedyScanner(sets, acc, rt.workers())
	res := &Result{SwitchPoint: -1}
	pick := func(i int) {
		used[i] = true
		acc.Add(sets[i])
		res.add(train.Samples[i].X, train.Samples[i].Label, FromTraining, acc.Coverage())
	}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := scan.next(acc, used)

		// Probe Algorithm 2 on the current residual network to estimate
		// its marginal coverage per test (§IV-D's switch criterion). The
		// probe's starting inputs are drawn even when the probe is
		// skipped, so every later round sees the rng stream it would see
		// if every probe ran.
		xs := synthStarts(inShape, classes, opts, rng)

		// A probe input newly covers only parameters not yet covered, so
		// probeGain <= uncovered. Both counts are exact in float64, and
		// float64 division rounds monotonically, so gainPerSynthetic <=
		// float64(uncovered)/float64(classes). A pick whose gain reaches
		// that bound wins the comparison below whatever the probe finds,
		// and is taken without probing: the upper-bound pruning of
		// accelerated greedy (Minoux, 1978), which greedyScanner applies
		// to Algorithm 1's own candidates.
		uncovered := net.NumParams() - acc.Covered()
		if best >= 0 && float64(bestGain) >= float64(uncovered)/float64(classes) {
			pick(best)
			continue
		}

		// The per-class synthesis and activation extraction fan out; the
		// probe accumulator merges in class order, as serially.
		residual := residualNet(net, acc.Set())
		rt.synthesize(residual, xs, opts)
		probeSets := rt.paramSetsOf(xs)
		probeAcc := acc.Clone()
		probeGain := 0
		for c := 0; c < classes; c++ {
			probeGain += probeAcc.Add(probeSets[c])
		}
		gainPerSynthetic := float64(probeGain) / float64(classes)

		if best >= 0 && float64(bestGain) >= gainPerSynthetic {
			pick(best)
			continue
		}

		// Switch: Algorithm 2 takes over, starting with the probe batch.
		// The tail starts from the covered set so far and extracts each
		// of its inputs, so its curve and covered set continue ours.
		res.SwitchPoint = len(res.Tests)
		for c := 0; c < classes && len(res.Tests) < opts.MaxTests; c++ {
			acc.Add(probeSets[c])
			res.add(xs[c], c, FromSynthesis, acc.Coverage())
		}
		res.Covered = acc.Set()
		if remaining := opts.MaxTests - len(res.Tests); remaining > 0 {
			tailOpts := opts
			tailOpts.MaxTests = remaining
			tail := rt.synthesisFrom(inShape, classes, tailOpts, acc.Set())
			for i := range tail.Tests {
				res.add(tail.Tests[i], tail.Labels[i], FromSynthesis, tail.Curve[i])
			}
			res.Covered = tail.Covered
		}
		return res, nil
	}
	res.Covered = acc.Set()
	return res, nil
}

// RandomSelect picks MaxTests training samples uniformly at random; the
// naive baseline for the coverage curves.
func RandomSelect(net *nn.Network, train *data.Dataset, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := checkPool(net, train); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(train.Len())
	picks := perm[:min(opts.MaxTests, len(perm))]
	acc := coverage.NewAccumulator(net.NumParams())
	res := &Result{SwitchPoint: -1}
	// Activation extraction for the whole pick fans out across workers;
	// the union then accumulates in pick order, so the curve matches the
	// serial loop exactly.
	xs := make([]*tensor.Tensor, len(picks))
	for j, idx := range picks {
		xs[j] = train.Samples[idx].X
	}
	rt := newGenRuntime(net, opts)
	defer rt.close()
	sets := rt.paramSetsOf(xs)
	for j, idx := range picks {
		s := train.Samples[idx]
		acc.Add(sets[j])
		res.add(s.X, s.Label, FromTraining, acc.Coverage())
	}
	res.Covered = acc.Set()
	return res, nil
}
