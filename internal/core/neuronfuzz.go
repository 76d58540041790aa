package core

import (
	"fmt"
	"math/rand"

	"repro/internal/bitset"
	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file implements the hardware-testing baseline of Tables II/III:
// test generation that only pursues *neuron* coverage, in the style of
// the combinatorial/fuzzing approaches the paper cites ([10] DeepXplore,
// [11] Ma et al.). Those systems generate tests by mutating seed inputs
// and keeping mutants that fire so-far-uncovered neurons; they do not
// optimise for the parameter coverage the paper shows actually matters.

// MutationConfig controls the fuzzer's input mutations.
type MutationConfig struct {
	// PerSeed is the number of mutants generated per training seed.
	PerSeed int
	// NoiseSigma is the additive Gaussian pixel noise level.
	NoiseSigma float64
	// OcclusionFrac is the side length of the occluded square patch as
	// a fraction of the image side.
	OcclusionFrac float64
}

// DefaultMutationConfig mirrors typical coverage-fuzzing settings.
func DefaultMutationConfig() MutationConfig {
	return MutationConfig{PerSeed: 3, NoiseSigma: 0.25, OcclusionFrac: 0.45}
}

// mutate produces one fuzzed variant of x: brightness jitter plus
// Gaussian noise plus a random occlusion patch — the standard image
// mutation operators of coverage-guided DNN testing.
func mutate(x *tensor.Tensor, mc MutationConfig, rng *rand.Rand) *tensor.Tensor {
	out := x.Clone()
	scale := 0.6 + rng.Float64()*0.8
	out.Scale(scale)
	for i := range out.Data() {
		out.Data()[i] += rng.NormFloat64() * mc.NoiseSigma
	}
	c, h, w := out.Dim(0), out.Dim(1), out.Dim(2)
	ph := int(float64(h) * mc.OcclusionFrac)
	pw := int(float64(w) * mc.OcclusionFrac)
	if ph > 0 && pw > 0 {
		oi := rng.Intn(h - ph + 1)
		oj := rng.Intn(w - pw + 1)
		fill := rng.Float64()
		for ch := 0; ch < c; ch++ {
			for i := oi; i < oi+ph; i++ {
				for j := oj; j < oj+pw; j++ {
					out.Data()[(ch*h+i)*w+j] = fill
				}
			}
		}
	}
	out.Clamp(0, 1)
	return out
}

// NeuronFuzz generates a validation suite the way the neuron-coverage
// baseline does: mutate training seeds and greedily keep the mutants
// that fire the most so-far-uncovered neurons; once neuron coverage
// saturates, fill the budget with random mutants. The Curve records
// *parameter* coverage so the suite can be compared against the
// proposed generators on the metric that predicts detection.
func NeuronFuzz(net *nn.Network, train *data.Dataset, ncfg coverage.NeuronConfig, mc MutationConfig, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := checkPool(net, train); err != nil {
		return nil, err
	}
	if mc.PerSeed <= 0 {
		return nil, fmt.Errorf("core: PerSeed must be positive, got %d", mc.PerSeed)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	inShape := []int{train.C, train.H, train.W}
	nNeurons := coverage.NumNeurons(net, inShape)

	type candidate struct {
		x     *tensor.Tensor
		label int
		used  bool
	}
	var pool []*candidate
	for _, s := range train.Samples {
		for m := 0; m < mc.PerSeed; m++ {
			pool = append(pool, &candidate{x: mutate(s.X, mc, rng), label: s.Label})
		}
	}
	nsets := make([]*bitset.Set, len(pool))
	for i, c := range pool {
		nsets[i] = coverage.NeuronActivation(net, c.x, ncfg)
	}
	nAcc := coverage.NewAccumulator(nNeurons)
	pAcc := coverage.NewAccumulator(net.NumParams())
	res := &Result{SwitchPoint: -1}

	add := func(i int) {
		pool[i].used = true
		nAcc.Add(nsets[i])
		pAcc.Add(coverage.ParamActivation(net, pool[i].x, opts.Coverage))
		res.add(pool[i].x, pool[i].label, FromSynthesis, pAcc.Coverage())
	}

	for len(res.Tests) < opts.MaxTests {
		best, bestGain := -1, 0
		for i := range pool {
			if pool[i].used {
				continue
			}
			if g := nAcc.Gain(nsets[i]); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 || bestGain == 0 {
			break // neuron coverage saturated
		}
		add(best)
	}
	for _, i := range rng.Perm(len(pool)) {
		if len(res.Tests) >= opts.MaxTests {
			break
		}
		if !pool[i].used {
			add(i)
		}
	}
	res.Covered = pAcc.Set()
	return res, nil
}
