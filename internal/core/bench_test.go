package core

import (
	"sync"
	"testing"

	"repro/internal/coverage"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// benchBed is a suite-generation testbed big enough that candidate
// evaluation (forward/backward passes over the pool) dominates, shared
// across benchmarks. It reuses the cached trained net of the unit tests
// so the bench-smoke CI job doesn't pay for a second training run.
var benchBed = sync.OnceValue(func() (bed struct {
	net *nn.Network
	ds  *data.Dataset
}) {
	bed.net = trainedDigitsNet()
	bed.ds = data.Digits(160, 12, 12, 200)
	return
})

func benchOpts(n, workers int) Options {
	opts := DefaultOptions(n)
	opts.Seed = 3
	opts.Steps = 8
	opts.Parallelism = workers
	return opts
}

// benchBatchOpts additionally pins the evaluation batch size; batch 1 is
// the per-sample reference path.
func benchBatchOpts(n, workers, batch int) Options {
	opts := benchOpts(n, workers)
	opts.Batch = batch
	return opts
}

// benchSelect measures Algorithm 1 suite generation end to end
// (activation precompute + greedy selection) at a fixed worker count.
func benchSelect(b *testing.B, workers int) {
	bed := benchBed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SelectFromTraining(bed.net, bed.ds, benchOpts(20, workers))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tests) != 20 {
			b.Fatal("bad suite")
		}
	}
}

// BenchmarkSelectFromTrainingSerial vs ...Parallel is the headline
// serial-vs-parallel comparison for suite generation: run with
// `go test -bench 'SelectFromTraining' ./internal/core/` on a
// multi-core machine and compare ns/op.
func BenchmarkSelectFromTrainingSerial(b *testing.B)   { benchSelect(b, 1) }
func BenchmarkSelectFromTrainingParallel(b *testing.B) { benchSelect(b, parallel.Auto()) }

func benchCombined(b *testing.B, workers int) {
	bed := benchBed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Combined(bed.net, bed.ds, benchOpts(16, workers))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tests) != 16 {
			b.Fatal("bad suite")
		}
	}
}

// BenchmarkCombinedSerial vs ...Parallel covers the full §IV-D pipeline:
// greedy selection, per-round synthesis probes, and the synthesis tail.
func BenchmarkCombinedSerial(b *testing.B)   { benchCombined(b, 1) }
func BenchmarkCombinedParallel(b *testing.B) { benchCombined(b, parallel.Auto()) }

func benchParamSets(b *testing.B, workers, batch int) {
	bed := benchBed()
	cfg := coverage.DefaultConfig(bed.net)
	xs := inputsOf(bed.ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := coverage.ParamSetsOf(bed.net, xs, cfg, workers, batch)
		if len(sets) != bed.ds.Len() {
			b.Fatal("bad sets")
		}
	}
}

// BenchmarkParamSetsSerial is the fully serial reference (one worker,
// per-sample). The PerSample vs Batched pair is the headline comparison
// for the batched engine on the coverage hot loop — identical
// (whole-machine) worker count, batch 1 vs the default evaluation
// batch; PerSample doubles as the parallel-workers measurement.
func BenchmarkParamSetsSerial(b *testing.B)    { benchParamSets(b, 1, 1) }
func BenchmarkParamSetsPerSample(b *testing.B) { benchParamSets(b, parallel.Auto(), 1) }
func BenchmarkParamSetsBatched(b *testing.B) {
	benchParamSets(b, parallel.Auto(), coverage.DefaultBatch)
}

// BenchmarkParamSetsSerialBatched measures the batched engine without
// worker fan-out: the speedup here is pure GEMM batching.
func BenchmarkParamSetsSerialBatched(b *testing.B) {
	benchParamSets(b, 1, coverage.DefaultBatch)
}

// BenchmarkSelectPerSample vs ...Batched covers Algorithm 1 end to end
// (activation precompute + lazy-greedy selection) at the two batch
// settings.
func BenchmarkSelectPerSample(b *testing.B) {
	benchSelectOpts(b, benchBatchOpts(20, parallel.Auto(), 1))
}
func BenchmarkSelectBatched(b *testing.B) {
	benchSelectOpts(b, benchBatchOpts(20, parallel.Auto(), coverage.DefaultBatch))
}

func benchSelectOpts(b *testing.B, opts Options) {
	bed := benchBed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SelectFromTraining(bed.net, bed.ds, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tests) != opts.MaxTests {
			b.Fatal("bad suite")
		}
	}
}

// BenchmarkSynthesisPerSample vs ...Batched isolates Algorithm 2's
// gradient-descent loop, whose forward/backward passes fuse into batched
// GEMMs across the per-class inputs.
func BenchmarkSynthesisPerSample(b *testing.B) {
	benchSynthesisOpts(b, benchBatchOpts(20, parallel.Auto(), 1))
}
func BenchmarkSynthesisBatched(b *testing.B) {
	benchSynthesisOpts(b, benchBatchOpts(20, parallel.Auto(), coverage.DefaultBatch))
}

func benchSynthesisOpts(b *testing.B, opts Options) {
	bed := benchBed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := GradientGenerate(bed.net, []int{1, 12, 12}, 10, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tests) != 20 {
			b.Fatal("bad suite")
		}
	}
}

func benchSynthesis(b *testing.B, workers int) {
	bed := benchBed()
	opts := benchOpts(20, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := GradientGenerate(bed.net, []int{1, 12, 12}, 10, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tests) != 20 {
			b.Fatal("bad suite")
		}
	}
}

// BenchmarkSynthesisSerial vs ...Parallel measures Algorithm 2's
// per-class gradient-descent fan-out.
func BenchmarkSynthesisSerial(b *testing.B)   { benchSynthesis(b, 1) }
func BenchmarkSynthesisParallel(b *testing.B) { benchSynthesis(b, parallel.Auto()) }

// BenchmarkResidualNet tracks the per-round cost of building the
// residual network Algorithm 2 descends on.
func BenchmarkResidualNet(b *testing.B) {
	bed := benchBed()
	covered := coverage.ParamActivation(bed.net, tensor.New(1, 12, 12), coverage.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net := residualNet(bed.net, covered); net.NumParams() != bed.net.NumParams() {
			b.Fatal("bad residual")
		}
	}
}
