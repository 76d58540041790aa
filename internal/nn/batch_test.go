package nn

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// batchBeds builds one small network per layer-type combination the
// engine supports, with an input maker. Every net ends in logits.
func batchBeds() []struct {
	name    string
	build   func() *Network
	inShape []int
	classes int
} {
	return []struct {
		name    string
		build   func() *Network
		inShape []int
		classes int
	}{
		{"dense", func() *Network {
			rng := rand.New(rand.NewSource(1))
			d := NewDense("fc", 6, 4)
			d.Init(rng)
			return NewNetwork(d)
		}, []int{6}, 4},
		{"dense-relu-dense", func() *Network {
			rng := rand.New(rand.NewSource(2))
			d1 := NewDense("fc1", 5, 7)
			d1.Init(rng)
			d2 := NewDense("fc2", 7, 3)
			d2.Init(rng)
			return NewNetwork(d1, NewActivate("relu", ReLU), d2)
		}, []int{5}, 3},
		{"dense-tanh-dense", func() *Network {
			rng := rand.New(rand.NewSource(3))
			d1 := NewDense("fc1", 5, 7)
			d1.InitGlorot(rng)
			d2 := NewDense("fc2", 7, 3)
			d2.InitGlorot(rng)
			return NewNetwork(d1, NewActivate("tanh", Tanh), d2)
		}, []int{5}, 3},
		{"dense-sigmoid-dense", func() *Network {
			rng := rand.New(rand.NewSource(4))
			d1 := NewDense("fc1", 4, 6)
			d1.InitGlorot(rng)
			d2 := NewDense("fc2", 6, 3)
			d2.InitGlorot(rng)
			return NewNetwork(d1, NewActivate("sig", Sigmoid), d2)
		}, []int{4}, 3},
		{"dense-lrelu-dense", func() *Network {
			rng := rand.New(rand.NewSource(5))
			d1 := NewDense("fc1", 4, 6)
			d1.Init(rng)
			d2 := NewDense("fc2", 6, 3)
			d2.Init(rng)
			return NewNetwork(d1, NewActivate("lrelu", LeakyReLU), d2)
		}, []int{4}, 3},
		{"conv-flatten-dense", func() *Network {
			rng := rand.New(rand.NewSource(6))
			c := NewConv2D("conv", 2, 5, 5, 3, 3, 1, 1)
			c.Init(rng)
			fc := NewDense("fc", 3*5*5, 4)
			fc.Init(rng)
			return NewNetwork(c, NewFlatten("flat"), fc)
		}, []int{2, 5, 5}, 4},
		{"conv-stride2-nopad", func() *Network {
			rng := rand.New(rand.NewSource(7))
			c := NewConv2D("conv", 1, 6, 6, 2, 2, 2, 0)
			c.Init(rng)
			fc := NewDense("fc", 2*3*3, 3)
			fc.Init(rng)
			return NewNetwork(c, NewFlatten("flat"), fc)
		}, []int{1, 6, 6}, 3},
		{"pool-flatten-dense", func() *Network {
			rng := rand.New(rand.NewSource(8))
			p := NewMaxPool2D("pool", 2, 4, 4, 2, 2)
			fc := NewDense("fc", 2*2*2, 3)
			fc.Init(rng)
			return NewNetwork(p, NewFlatten("flat"), fc)
		}, []int{2, 4, 4}, 3},
		{"scaleshift-cnn-tanh", func() *Network {
			rng := rand.New(rand.NewSource(9))
			c1 := NewConv2D("conv1", 1, 8, 8, 2, 3, 1, 1)
			c1.InitGlorot(rng)
			p1 := NewMaxPool2D("pool1", 2, 8, 8, 2, 2)
			c2 := NewConv2D("conv2", 2, 4, 4, 3, 3, 1, 1)
			c2.InitGlorot(rng)
			p2 := NewMaxPool2D("pool2", 3, 4, 4, 2, 2)
			fc := NewDense("fc", 3*2*2, 4)
			fc.InitGlorot(rng)
			return NewNetwork(
				NewScaleShift("norm", 2, -1),
				c1, NewActivate("tanh1", Tanh), p1,
				c2, NewActivate("tanh2", Tanh), p2,
				NewFlatten("flat"), fc,
			)
		}, []int{1, 8, 8}, 4},
		{"cnn-relu", func() *Network {
			rng := rand.New(rand.NewSource(10))
			c1 := NewConv2D("conv1", 3, 6, 6, 2, 3, 1, 1)
			c1.Init(rng)
			p1 := NewMaxPool2D("pool1", 2, 6, 6, 2, 2)
			fc := NewDense("fc", 2*3*3, 4)
			fc.Init(rng)
			return NewNetwork(c1, NewActivate("relu1", ReLU), p1, NewFlatten("flat"), fc)
		}, []int{3, 6, 6}, 4},
	}
}

func randBatch(rng *rand.Rand, n int, shape []int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(shape...)
		xs[i].FillNormal(rng, 0, 1)
	}
	return xs
}

func sameData(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v (batched path must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// TestBatchedEquivalence drives every layer type through ForwardBatch /
// SoftmaxCrossEntropyBatch / BackwardBatch / BackwardSample and demands
// exact equality with the per-sample path: logits, per-sample losses and
// loss gradients, input gradients, accumulated parameter gradients, and
// per-sample parameter gradients. Batch sizes cover B=1, an odd B and a
// power of two.
func TestBatchedEquivalence(t *testing.T) {
	for _, bed := range batchBeds() {
		for _, B := range []int{1, 3, 8} {
			rng := rand.New(rand.NewSource(int64(100 + B)))
			xs := randBatch(rng, B, bed.inShape)
			labels := make([]int, B)
			for i := range labels {
				labels[i] = rng.Intn(bed.classes)
			}

			// Per-sample reference: logits, losses, loss grads, input
			// grads, and the serial accumulated parameter gradients.
			ref := bed.build()
			ref.ZeroGrad()
			refLogits := make([]*tensor.Tensor, B)
			refLoss := make([]float64, B)
			refDX := make([]*tensor.Tensor, B)
			for b, x := range xs {
				logits := ref.Forward(x)
				refLogits[b] = logits.Clone()
				loss, dLogits := SoftmaxCrossEntropy(logits, labels[b])
				refLoss[b] = loss
				refDX[b] = ref.Backward(dLogits)
			}

			// Batched path on an identical clone.
			net := ref.Clone()
			net.ZeroGrad()
			X := tensor.Stack(xs)
			logitsB := net.ForwardBatch(X)
			for b := range xs {
				sameData(t, bed.name+"/logits", logitsB.Sample(b).Data(), refLogits[b].Data())
			}
			lossesB, dLogitsB := SoftmaxCrossEntropyBatch(logitsB, labels)
			for b := range xs {
				if lossesB[b] != refLoss[b] {
					t.Fatalf("%s B=%d: loss[%d] = %v, want %v", bed.name, B, b, lossesB[b], refLoss[b])
				}
			}
			dXB := net.BackwardBatch(dLogitsB)
			for b := range xs {
				sameData(t, bed.name+"/dx", dXB.Sample(b).Data(), refDX[b].Data())
			}
			for i, p := range net.Params() {
				sameData(t, bed.name+"/grad:"+p.Name, p.Grad.Data(), ref.Params()[i].Grad.Data())
			}

			// The input-only backward must produce the same dX without
			// touching the parameter gradients.
			before := make([][]float64, len(net.Params()))
			for i, p := range net.Params() {
				before[i] = append([]float64(nil), p.Grad.Data()...)
			}
			dXI := net.BackwardBatchInput(dLogitsB)
			sameData(t, bed.name+"/dx-input-only", dXI.Data(), dXB.Data())
			for i, p := range net.Params() {
				sameData(t, bed.name+"/grad-untouched:"+p.Name, p.Grad.Data(), before[i])
			}

			// BackwardSample: per-sample gradients out of one batched
			// forward must equal a fresh per-sample Forward+Backward.
			per := ref.Clone()
			net2 := ref.Clone()
			net2.ForwardBatch(X)
			for b, x := range xs {
				per.ZeroGrad()
				logits := per.Forward(x)
				perDX := per.Backward(OnesLike(logits))

				net2.ZeroGrad()
				dxs := net2.BackwardSample(b, OnesLike(refLogits[b]))
				for i, p := range net2.Params() {
					sameData(t, bed.name+"/sample-grad:"+p.Name, p.Grad.Data(), per.Params()[i].Grad.Data())
				}
				sameData(t, bed.name+"/sample-dx", dxs.Data(), perDX.Data())
			}
		}
	}
}

// TestBatchGradCheck verifies the batched backward pass numerically: the
// gradient of the summed batch loss with respect to every parameter and
// every input element must match central finite differences.
func TestBatchGradCheck(t *testing.T) {
	const h = 1e-6
	for _, bed := range batchBeds() {
		B := 3
		rng := rand.New(rand.NewSource(77))
		xs := randBatch(rng, B, bed.inShape)
		if bed.name == "pool-flatten-dense" {
			// Spread values so no window entries tie or sit within h of
			// the max, keeping the finite difference valid.
			for _, x := range xs {
				x.Scale(10)
			}
		}
		labels := make([]int, B)
		for i := range labels {
			labels[i] = rng.Intn(bed.classes)
		}
		net := bed.build()
		X := tensor.Stack(xs)

		batchLoss := func() float64 {
			losses, _ := SoftmaxCrossEntropyBatch(net.ForwardBatch(X), labels)
			sum := 0.0
			for _, l := range losses {
				sum += l
			}
			return sum
		}

		net.ZeroGrad()
		losses, dLogits := SoftmaxCrossEntropyBatch(net.ForwardBatch(X), labels)
		_ = losses
		dX := net.BackwardBatch(dLogits)

		for i := 0; i < net.NumParams(); i++ {
			orig := net.ParamAt(i)
			net.SetParamAt(i, orig+h)
			up := batchLoss()
			net.SetParamAt(i, orig-h)
			down := batchLoss()
			net.SetParamAt(i, orig)
			num := (up - down) / (2 * h)
			ana := net.GradAt(i)
			if diff := math.Abs(num - ana); diff > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s: batch param %s: analytic %.8g, numeric %.8g", bed.name, net.ParamName(i), ana, num)
			}
		}
		for i := range X.Data() {
			orig := X.Data()[i]
			X.Data()[i] = orig + h
			up := batchLoss()
			X.Data()[i] = orig - h
			down := batchLoss()
			X.Data()[i] = orig
			num := (up - down) / (2 * h)
			ana := dX.Data()[i]
			if diff := math.Abs(num - ana); diff > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s: batch input %d: analytic %.8g, numeric %.8g", bed.name, i, ana, num)
			}
		}
	}
}

// TestPredictBatchMatchesPredict checks the batched classifier answer.
func TestPredictBatchMatchesPredict(t *testing.T) {
	bed := batchBeds()[8] // scaleshift-cnn-tanh
	net := bed.build()
	rng := rand.New(rand.NewSource(5))
	xs := randBatch(rng, 5, bed.inShape)
	got := net.PredictBatch(tensor.Stack(xs))
	for b, x := range xs {
		if want := net.Predict(x); got[b] != want {
			t.Fatalf("PredictBatch[%d] = %d, want %d", b, got[b], want)
		}
	}
}

// TestConvBatchAllocsIndependentOfBatch: a warmed convolution's batched
// forward and input-only backward allocate as many objects at B = 8 as
// at B = 1, namely their output tensors: the kernels take their scratch
// from pools and build no per-sample column matrix, column-gradient
// product or Col2Im tensor. One kernel worker keeps the fan-out's own
// allocations out of the count. Under the race detector sync.Pool drops
// a random share of what it is given, so pooled scratch is reallocated
// at random there; the slack allowed for that is far below the seven or
// more objects a per-sample allocation would add at B = 8.
func TestConvBatchAllocsIndependentOfBatch(t *testing.T) {
	prev := tensor.Parallelism()
	tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	slack := 0.0
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		slack = 2
	}
	rng := rand.New(rand.NewSource(21))
	for _, pad := range []int{0, 1} {
		c := NewConv2D("conv", 8, 18, 18, 8, 3, 1, pad)
		c.Init(rng)
		allocs := map[int]float64{}
		for _, b := range []int{1, 8} {
			x := randIn(rng, b, 8, 18, 18)
			dOut := randIn(rng, c.ForwardBatch(x).Shape()...)
			c.BackwardBatchInput(dOut)
			allocs[b] = testing.AllocsPerRun(20, func() {
				c.ForwardBatch(x)
				c.BackwardBatchInput(dOut)
			})
		}
		if math.Abs(allocs[8]-allocs[1]) > slack {
			t.Errorf("pad %d: %v allocations per forward and input backward at B=1, %v at B=8; want the same", pad, allocs[1], allocs[8])
		}
	}
}
