package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// Batched convolution benchmarks for the CI regression gate: a
// serving-scale conv layer whose forward GEMM streams an out-of-cache
// im2col block, in both precisions. The backward is float64 only — the
// float32 path is forward-only by design.

const (
	benchConvB    = 16
	benchConvInC  = 3
	benchConvIn   = 32
	benchConvOutC = 16
	benchConvK    = 3
)

func benchConv(b *testing.B) (*Conv2D, *tensor.Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	c := NewConv2D("conv", benchConvInC, benchConvIn, benchConvIn, benchConvOutC, benchConvK, 1, 1)
	c.Init(rng)
	x := tensor.New(benchConvB, benchConvInC, benchConvIn, benchConvIn)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	return c, x
}

func BenchmarkConvForwardF64(b *testing.B) {
	c, x := benchConv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardBatch(x)
	}
}

func BenchmarkConvForwardF32(b *testing.B) {
	c, x := benchConv(b)
	net := Freeze[float32](NewNetwork(c))
	x32 := x.F32()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(x32)
	}
}

func BenchmarkConvBackwardF64(b *testing.B) {
	c, x := benchConv(b)
	out := c.ForwardBatch(x)
	dOut := tensor.New(out.Shape()...)
	rng := rand.New(rand.NewSource(2))
	for i := range dOut.Data() {
		dOut.Data()[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BackwardBatch(dOut)
	}
}

// BenchmarkConvBackwardInputF64 times the synthesis pass: the batched
// input-only backward at the CIFAR substitute's conv2 geometry (8
// channels of 18×18 in, 8 out, 3×3, no padding), on a batch of five.
func BenchmarkConvBackwardInputF64(b *testing.B) {
	const batch, inC, in, outC, k = 5, 8, 18, 8, 3
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("conv2", inC, in, in, outC, k, 1, 0)
	c.Init(rng)
	x := tensor.New(batch, inC, in, in)
	x.FillNormal(rng, 0, 1)
	dOut := tensor.New(c.ForwardBatch(x).Shape()...)
	dOut.FillNormal(rng, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.BackwardBatchInput(dOut)
	}
}
