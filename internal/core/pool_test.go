package core

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestPinnedExtractorMatchesParamSets: the pinned extractor must
// reproduce ParamSetsParallel/ParamSetsOf exactly, including after a
// Sync, at per-sample and batched settings.
func TestPinnedExtractorMatchesParamSets(t *testing.T) {
	net := trainedDigitsNet()
	train := data.Digits(20, 12, 12, 107)
	cfg := coverage.DefaultConfig(net)

	for _, batch := range []int{1, 4} {
		pool := parallel.NewPool(3)
		ext := coverage.NewPinnedExtractor(net, pool, batch)

		want := coverage.ParamSetsParallel(net, train, cfg, 3, batch)
		got := ext.ParamSets(train, cfg)
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("batch %d: pinned ParamSets differs at sample %d", batch, i)
			}
		}

		// Sync against a perturbed master changes the extraction like a
		// fresh per-call clone of that master would.
		perturbed := net.Clone()
		perturbed.SetParamAt(0, perturbed.ParamAt(0)+3)
		ext.Sync(perturbed)
		xs := train.Samples[0].X
		wantP := coverage.ParamSetsOf(perturbed, []*tensor.Tensor{xs}, cfg, 1, batch)
		gotP := ext.ParamSetsOf([]*tensor.Tensor{xs}, cfg)
		if !gotP[0].Equal(wantP[0]) {
			t.Fatalf("batch %d: pinned extraction after Sync differs", batch)
		}
		pool.Close()
	}
}
