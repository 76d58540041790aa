package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// inputsOf returns the inputs of ds in order.
func inputsOf(ds *data.Dataset) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, ds.Len())
	for i, s := range ds.Samples {
		xs[i] = s.X
	}
	return xs
}

// TestPinnedExtractorMatchesParamSets: the pinned extractor must give
// every input the set ParamActivation gives it alone (a batch of one
// on the network itself), at per-sample and batched settings, and
// ParamSetsOf, its one-call form, must give the same sets.
func TestPinnedExtractorMatchesParamSets(t *testing.T) {
	net := trainedDigitsNet()
	train := data.Digits(20, 12, 12, 107)
	cfg := coverage.DefaultConfig(net)

	for _, batch := range []int{1, 4} {
		pool := parallel.NewPool(3)
		got := coverage.NewPinnedExtractor(net, pool, batch).ParamSets(train, cfg)
		pool.Close()
		once := coverage.ParamSetsOf(net, inputsOf(train), cfg, 2, batch)
		for i, s := range train.Samples {
			want := coverage.ParamActivation(net, s.X, cfg)
			if !got[i].Equal(want) || !once[i].Equal(want) {
				t.Fatalf("batch %d: extraction differs from ParamActivation at sample %d", batch, i)
			}
		}
	}
}
