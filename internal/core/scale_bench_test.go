package core

import (
	"fmt"
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// scaleBed is an experiment-scale testbed (the quarter-width Table I
// CIFAR stack on 20×20 colour inputs) for benchmarking the batched
// engine on full-size layers; initialisation only, no training, since
// activation-extraction cost does not depend on the weights being
// trained.
func scaleBed(b *testing.B) (*nn.Network, *data.Dataset) {
	b.Helper()
	net, err := models.CIFAR(20, 20, 0.25).Build(9)
	if err != nil {
		b.Fatal(err)
	}
	return net, data.Objects(64, 20, 20, 42)
}

// BenchmarkScaleParamSetsBatchSweep charts activation extraction across
// evaluation batch sizes at experiment scale; batch=1 is the per-sample
// path.
func BenchmarkScaleParamSetsBatchSweep(b *testing.B) {
	net, ds := scaleBed(b)
	cfg := coverage.DefaultConfig(net)
	xs := inputsOf(ds)
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coverage.ParamSetsOf(net, xs, cfg, parallel.Auto(), batch)
			}
		})
	}
}

// BenchmarkScaleSynthesisBatchSweep charts Algorithm 2 synthesis across
// evaluation batch sizes at experiment scale, where the input-only
// batched backward pays off most.
func BenchmarkScaleSynthesisBatchSweep(b *testing.B) {
	net, _ := scaleBed(b)
	opts := DefaultOptions(10)
	opts.Steps = 6
	for _, batch := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			opts.Batch = batch
			for i := 0; i < b.N; i++ {
				if _, err := GradientGenerate(net, []int{3, 20, 20}, 10, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
