package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// These tests pin Algorithm 2's early-stopping step loop against the
// T-step loops it replaced. The old loops are replicated verbatim here
// (they are the reference); synthStepsBatch must reproduce them bit for
// bit while running fewer passes, on a batch and on a batch of one.

// refSynthSteps is the T-step per-sample loop.
func refSynthSteps(target *nn.Network, x *tensor.Tensor, label int, opts Options) *tensor.Tensor {
	for t := 0; t < opts.Steps; t++ {
		target.ZeroGrad()
		logits := target.Forward(x)
		_, dLogits := nn.SoftmaxCrossEntropy(logits, label)
		dx := target.Backward(dLogits)
		x.AddScaled(-opts.Eta, dx)
		if opts.Clamp {
			x.Clamp(0, 1)
		}
	}
	return x
}

// refSynthStepsBatch is the T-step batched loop.
func refSynthStepsBatch(target *nn.Network, xs []*tensor.Tensor, firstLabel int, opts Options) {
	x := tensor.Stack(xs)
	labels := make([]int, len(xs))
	for i := range labels {
		labels[i] = firstLabel + i
	}
	for t := 0; t < opts.Steps; t++ {
		logits := target.ForwardBatch(x)
		_, dLogits := nn.SoftmaxCrossEntropyBatch(logits, labels)
		dx := target.BackwardBatchInput(dLogits)
		x.AddScaled(-opts.Eta, dx)
		if opts.Clamp {
			x.Clamp(0, 1)
		}
	}
	sz := xs[0].Size()
	for i := range xs {
		copy(xs[i].Data(), x.Data()[i*sz:(i+1)*sz])
	}
}

// passCounter wraps a network's first layer and records the batch
// dimension of each of its forward passes; a single sample is a batch
// of one.
type passCounter struct {
	nn.BatchLayer
	dims []int
}

func (p *passCounter) Forward(x *tensor.Tensor) *tensor.Tensor {
	p.dims = append(p.dims, 1)
	return p.BatchLayer.Forward(x)
}

func (p *passCounter) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	p.dims = append(p.dims, x.Dim(0))
	return p.BatchLayer.ForwardBatch(x)
}

// counted returns a copy of net whose first layer counts its passes.
func counted(net *nn.Network) (*nn.Network, *passCounter) {
	c := net.Clone()
	pc := &passCounter{BatchLayer: c.LayerStack[0].(nn.BatchLayer)}
	return nn.NewNetwork(append([]nn.Layer{pc}, c.LayerStack[1:]...)...), pc
}

// zeroConvNet is a copy of net whose first convolution's weights are
// all zero, so every input gradient is exactly zero.
func zeroConvNet(net *nn.Network) *nn.Network {
	c := net.Clone()
	c.LayerStack[0].(*nn.Conv2D).Weight.W.Zero()
	return c
}

// sharpNet is a copy of net whose output layer is scaled by k. Its
// softmax saturates within a few steps, at a different step for each
// row: once a row's update falls below half an ulp of every element, the
// row stops changing.
func sharpNet(net *nn.Network, k float64) *nn.Network {
	c := net.Clone()
	out := c.LayerStack[len(c.LayerStack)-1].(*nn.Dense)
	out.Weight.W.Scale(k)
	out.Bias.W.Scale(k)
	return c
}

type synthTarget struct {
	name string
	net  *nn.Network
}

// synthTargets are the networks the reference tests synthesise
// against: the trained digits net; its residual networks after 1 and 3
// greedy picks (the targets Combined's probes meet, whose first
// convolution is all zero) and with a random 30 % and 90 % of its
// parameters covered; a net whose first convolution is all zero; and a
// sharpened net whose rows stop at different steps.
func synthTargets(t *testing.T) []synthTarget {
	t.Helper()
	net := trainedDigitsNet()
	targets := []synthTarget{{"trained", net}}
	for _, k := range []int{1, 3} {
		res, err := SelectFromTraining(net, digitsTrainSet(), Options{MaxTests: k, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, synthTarget{fmt.Sprintf("residual-picks%d", k), residualNet(net, res.Covered)})
	}
	for _, frac := range []float64{0.3, 0.9} {
		rng := rand.New(rand.NewSource(int64(frac * 100)))
		covered := bitset.New(net.NumParams())
		for i := 0; i < net.NumParams(); i++ {
			if rng.Float64() < frac {
				covered.Set(i)
			}
		}
		targets = append(targets, synthTarget{fmt.Sprintf("residual-random%.0f%%", frac*100), residualNet(net, covered)})
	}
	return append(targets, synthTarget{"zeroconv", zeroConvNet(net)}, synthTarget{"sharp", sharpNet(net, 20)})
}

// startInputs draws n starting inputs the way a synthesis round does.
func startInputs(n int, opts Options, seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = synthInit([]int{1, 12, 12}, opts, rng)
	}
	return xs
}

func clones(xs []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		out[i] = x.Clone()
	}
	return out
}

func requireSameBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !slices.Equal(got.Shape(), want.Shape()) || !sameBits(got.Data(), want.Data()) {
		t.Fatalf("%s: synthesised input differs from the T-step reference", name)
	}
}

// TestSynthStepsMatchReference: on every target, init, clamp setting
// and batch of 1–5 rows, the early-stopping loops give the T-step
// loops' inputs bit for bit. The grid must contain batches whose rows
// stop at different steps, batches that stop before step T, and
// batches that run all T steps.
func TestSynthStepsMatchReference(t *testing.T) {
	mixed, early, full := 0, 0, 0
	for _, tg := range synthTargets(t) {
		for _, init := range []InitMode{ZeroInit, GaussianInit} {
			for _, clamp := range []bool{true, false} {
				opts := DefaultOptions(1)
				opts.Steps = 12 // below the default 30; the sharpened rows stop by step 5
				opts.Init, opts.Clamp = init, clamp
				for n := 1; n <= 5; n++ {
					passes := checkSynthBatch(t, tg, opts, n, 7*n%(11-n))
					if slices.Min(passes) < slices.Max(passes) {
						mixed++
					}
					if slices.Max(passes) < opts.Steps {
						early++
					} else {
						full++
					}
				}
			}
		}
	}
	if mixed == 0 || early == 0 || full == 0 {
		t.Fatalf("grid has %d batches whose rows stop at different steps, %d that stop early and %d that run all T steps; it must have all three", mixed, early, full)
	}
}

// checkSynthBatch synthesises n rows targeting classes first..first+n-1
// with the reference and the early-stopping loops, as one batch and
// each row as a batch of one, and requires equal bits. It returns each
// row's pass count alone, and requires the batch to run on all n rows
// for as many passes as its slowest row: a row is unchanged at every
// step from its first unchanged one on, so the whole batch is first
// unchanged there.
func checkSynthBatch(t *testing.T, tg synthTarget, opts Options, n, first int) []int {
	t.Helper()
	name := fmt.Sprintf("%s init=%d clamp=%t n=%d first=%d", tg.name, opts.Init, opts.Clamp, n, first)
	start := startInputs(n, opts, int64(100*n+first))

	want := clones(start)
	refSynthStepsBatch(tg.net.Clone(), want, first, opts)

	// Batched rows equal rows alone, so each row alone is held against
	// the batched reference; a single row also against the per-sample
	// reference.
	single, spc := counted(tg.net)
	passes := make([]int, n)
	for i := range start {
		before := len(spc.dims)
		g := start[i].Clone()
		synthStepsBatch(single, []*tensor.Tensor{g}, first+i, opts)
		requireSameBits(t, fmt.Sprintf("%s row %d (alone)", name, i), g, want[i])
		passes[i] = len(spc.dims) - before
		if passes[i] < 1 || passes[i] > opts.Steps {
			t.Fatalf("%s row %d: %d passes alone, want 1..T = %d", name, i, passes[i], opts.Steps)
		}
	}
	if n == 1 {
		requireSameBits(t, name+" (per-sample reference)", refSynthSteps(tg.net.Clone(), start[0].Clone(), first, opts), want[0])
	}

	got := clones(start)
	net, pc := counted(tg.net)
	synthStepsBatch(net, got, first, opts)
	for i := range want {
		requireSameBits(t, fmt.Sprintf("%s row %d (batched)", name, i), got[i], want[i])
	}
	if len(pc.dims) != slices.Max(passes) || slices.ContainsFunc(pc.dims, func(d int) bool { return d != n }) {
		t.Fatalf("%s: batch dims %v, want %d passes of %d rows (row passes %v)", name, pc.dims, slices.Max(passes), n, passes)
	}
	return passes
}

// TestSynthPassCounts counts the passes the early-stopping loops run.
// With an all-zero first convolution the input gradient is exactly
// zero, so every row is a fixed point after one step: the batch runs
// one pass where the T-step loop ran T, and so does a row alone. On
// the sharpened net the rows stop at different steps, all before T,
// and the batch runs until its slowest row stops.
func TestSynthPassCounts(t *testing.T) {
	zc := zeroConvNet(trainedDigitsNet())
	for _, init := range []InitMode{ZeroInit, GaussianInit} {
		opts := DefaultOptions(1)
		opts.Init = init
		start := startInputs(5, opts, 9)

		net, pc := counted(zc)
		xs := clones(start)
		synthStepsBatch(net, xs, 3, opts)
		if !slices.Equal(pc.dims, []int{5}) {
			t.Fatalf("init %d: batch dims %v, want one pass of 5 rows", init, pc.dims)
		}
		for i := range xs {
			requireSameBits(t, fmt.Sprintf("init %d row %d", init, i), xs[i], start[i])
		}

		ref, rpc := counted(zc)
		refSynthStepsBatch(ref, clones(start), 3, opts)
		if len(rpc.dims) != opts.Steps {
			t.Fatalf("reference ran %d passes, want T = %d", len(rpc.dims), opts.Steps)
		}

		single, spc := counted(zc)
		synthStepsBatch(single, []*tensor.Tensor{start[0].Clone()}, 3, opts)
		if !slices.Equal(spc.dims, []int{1}) {
			t.Fatalf("init %d: batch dims %v alone, want one pass of 1 row", init, spc.dims)
		}
	}

	opts := DefaultOptions(1)
	opts.Clamp = false
	passes := checkSynthBatch(t, synthTarget{"sharp", sharpNet(trainedDigitsNet(), 20)}, opts, 5, 0)
	if slices.Min(passes) == slices.Max(passes) || slices.Max(passes) >= opts.Steps {
		t.Fatalf("sharpened rows ran %v passes: want rows that stop at different steps, all short of T = %d", passes, opts.Steps)
	}
}

// TestParamSetsOfRepeats: extracting each distinct input once gives
// every slot the set coverage.ParamSetsOf gives it without
// deduplication, and repeated slots hold distinct *bitset.Set objects,
// on one worker and on several.
func TestParamSetsOfRepeats(t *testing.T) {
	net := trainedDigitsNet()
	ds := digitsTrainSet()
	a, b := ds.Samples[0].X, ds.Samples[1].X
	negZero := tensor.New(1, 12, 12)
	negZero.Data()[7] = math.Copysign(0, -1)
	xs := []*tensor.Tensor{a, tensor.New(1, 12, 12), a.Clone(), b, a, tensor.New(1, 12, 12), negZero, b.Clone()}
	cfg := coverage.DefaultConfig(net)
	want := coverage.ParamSetsOf(net, xs, cfg, 1, 1)

	for _, o := range []Options{
		{Coverage: cfg, Parallelism: 1},
		{Coverage: cfg, Parallelism: 3, Batch: 3},
		{Coverage: cfg, Parallelism: 2, Batch: 2},
	} {
		rt := newGenRuntime(net, o)
		got := rt.paramSetsOf(xs)
		rt.close()
		seen := map[*bitset.Set]bool{}
		for i := range xs {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d batch=%d: slot %d differs from ParamSetsOf", o.Parallelism, o.Batch, i)
			}
			if seen[got[i]] {
				t.Fatalf("workers=%d batch=%d: slot %d shares its set with an earlier slot", o.Parallelism, o.Batch, i)
			}
			seen[got[i]] = true
		}
	}
	if uniq, _ := distinctInputs(xs); len(uniq) != 4 {
		t.Fatalf("%d distinct inputs, want 4 (a, zeros, b, the -0 input)", len(uniq))
	}
}

// TestSameBits: the fixed-point test compares bit patterns, not values:
// -0 and +0 differ, and a NaN equals its own bits.
func TestSameBits(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	if sameBits([]float64{0}, []float64{negZero}) {
		t.Fatal("+0 and -0 compared equal")
	}
	if !sameBits([]float64{1, nan}, []float64{1, nan}) {
		t.Fatal("a NaN compared unequal to its own bits")
	}
	if sameBits([]float64{nan}, []float64{math.Float64frombits(math.Float64bits(nan) ^ 1)}) {
		t.Fatal("NaNs with different payloads compared equal")
	}
}

// TestSynthesisBatchesOneClassChunks: at Parallelism 10 each worker
// synthesises one of the ten classes, a batch of one through the
// input-only backward, at Batch 0 (the default) and at Batch 1 alike.
// Both give the inputs one worker synthesises class by class.
func TestSynthesisBatchesOneClassChunks(t *testing.T) {
	const classes = 10
	net := trainedDigitsNet()
	inShape := []int{1, 12, 12}
	for _, init := range []InitMode{ZeroInit, GaussianInit} {
		ref := DefaultOptions(1)
		ref.Init, ref.Parallelism, ref.Batch = init, 1, 1
		serial := newGenRuntime(net, ref)
		want := serial.synthesize(net, inShape, classes, ref, rand.New(rand.NewSource(5)))
		serial.close()
		for _, batch := range []int{0, 1} {
			opts := ref
			opts.Parallelism, opts.Batch = classes, batch
			rt := newGenRuntime(net, opts)
			counters := make([]*passCounter, classes)
			rt.synth = make([]*nn.Network, classes)
			for w := range rt.synth {
				rt.synth[w], counters[w] = counted(net)
			}
			got := rt.synthesize(net, inShape, classes, opts, rand.New(rand.NewSource(5)))
			rt.close()
			for c := range want {
				requireSameBits(t, fmt.Sprintf("init %d batch %d class %d", init, batch, c), got[c], want[c])
			}
			for w, pc := range counters {
				if len(pc.dims) == 0 || slices.ContainsFunc(pc.dims, func(d int) bool { return d != 1 }) {
					t.Fatalf("init %d batch %d: worker %d ran batch dims %v, want batches of one only", init, batch, w, pc.dims)
				}
			}
		}
	}
}
