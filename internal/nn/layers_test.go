package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestConvOutShape(t *testing.T) {
	c := NewConv2D("c", 3, 32, 32, 64, 3, 1, 0)
	want := []int{64, 30, 30}
	got := c.OutShape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OutShape = %v, want %v", got, want)
		}
	}
}

func TestConvForwardBias(t *testing.T) {
	// Zero weights: output must equal the bias everywhere.
	c := NewConv2D("c", 1, 4, 4, 2, 3, 1, 1)
	c.Bias.W.Data()[0] = 1.5
	c.Bias.W.Data()[1] = -2
	x := tensor.New(1, 4, 4)
	x.Fill(3)
	out := c.Forward(x)
	for i := 0; i < 16; i++ {
		if out.Data()[i] != 1.5 {
			t.Fatalf("channel 0 output = %v, want 1.5", out.Data()[i])
		}
		if out.Data()[16+i] != -2 {
			t.Fatalf("channel 1 output = %v, want -2", out.Data()[16+i])
		}
	}
}

func TestConvIdentityKernel(t *testing.T) {
	// 1x1 kernel with weight 1 reproduces the input.
	c := NewConv2D("c", 1, 3, 3, 1, 1, 1, 0)
	c.Weight.W.Data()[0] = 1
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	out := c.Forward(x)
	for i, v := range x.Data() {
		if out.Data()[i] != v {
			t.Fatalf("identity conv[%d] = %v, want %v", i, out.Data()[i], v)
		}
	}
}

func TestConvWrongInputPanics(t *testing.T) {
	c := NewConv2D("c", 1, 4, 4, 2, 3, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong conv input did not panic")
		}
	}()
	c.Forward(tensor.New(2, 4, 4))
}

func TestDenseForwardHandChecked(t *testing.T) {
	d := NewDense("fc", 2, 2)
	copy(d.Weight.W.Data(), []float64{1, 2, 3, 4})
	copy(d.Bias.W.Data(), []float64{0.5, -0.5})
	x := tensor.FromSlice([]float64{1, 1}, 2)
	out := d.Forward(x)
	if out.Data()[0] != 3.5 || out.Data()[1] != 6.5 {
		t.Fatalf("Dense forward = %v, want [3.5 6.5]", out.Data())
	}
}

func TestDenseAcceptsFlattenedShapes(t *testing.T) {
	d := NewDense("fc", 4, 2)
	x := tensor.New(1, 2, 2) // rank-3 but right size
	if out := d.Forward(x); out.Size() != 2 {
		t.Fatalf("output size %d, want 2", out.Size())
	}
}

func TestDenseWrongSizePanics(t *testing.T) {
	d := NewDense("fc", 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong dense input did not panic")
		}
	}()
	d.Forward(tensor.New(5))
}

func TestMaxPoolForwardHandChecked(t *testing.T) {
	p := NewMaxPool2D("pool", 1, 4, 4, 2, 2)
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 4, 4)
	out := p.Forward(x)
	want := []float64{4, 8, 12, 16}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data()[i], w)
		}
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	p := NewMaxPool2D("pool", 1, 2, 2, 2, 2)
	x := tensor.FromSlice([]float64{1, 9, 3, 4}, 1, 2, 2)
	p.Forward(x)
	d := tensor.FromSlice([]float64{5}, 1, 1, 1)
	dx := p.BackwardSample(0, d)
	want := []float64{0, 5, 0, 0}
	for i, w := range want {
		if dx.Data()[i] != w {
			t.Fatalf("pool backward[%d] = %v, want %v", i, dx.Data()[i], w)
		}
	}
}

func TestMaxPoolNegativeInputs(t *testing.T) {
	// All-negative window: the max must still be found (guards against a
	// zero-initialised "best" bug).
	p := NewMaxPool2D("pool", 1, 2, 2, 2, 2)
	x := tensor.FromSlice([]float64{-5, -1, -3, -4}, 1, 2, 2)
	out := p.Forward(x)
	if out.Data()[0] != -1 {
		t.Fatalf("pool of negatives = %v, want -1", out.Data()[0])
	}
}

func TestActivationValues(t *testing.T) {
	x := tensor.FromSlice([]float64{-2, 0, 3}, 3)
	cases := []struct {
		fn   Activation
		want []float64
	}{
		{ReLU, []float64{0, 0, 3}},
		{LeakyReLU, []float64{-0.02, 0, 3}},
		{Tanh, []float64{math.Tanh(-2), 0, math.Tanh(3)}},
		{Sigmoid, []float64{1 / (1 + math.Exp(2)), 0.5, 1 / (1 + math.Exp(-3))}},
	}
	for _, c := range cases {
		a := NewActivate("a", c.fn)
		out := a.Forward(x)
		for i, w := range c.want {
			if math.Abs(out.Data()[i]-w) > 1e-12 {
				t.Errorf("%v(%v) = %v, want %v", c.fn, x.Data()[i], out.Data()[i], w)
			}
		}
	}
}

func TestActivationStringAndSaturating(t *testing.T) {
	if ReLU.String() != "relu" || Tanh.String() != "tanh" || Sigmoid.String() != "sigmoid" || LeakyReLU.String() != "leakyrelu" {
		t.Fatal("Activation.String mismatch")
	}
	if Activation(99).String() != "unknown" {
		t.Fatal("unknown activation should stringify to unknown")
	}
	if ReLU.Saturating() || LeakyReLU.Saturating() {
		t.Fatal("ReLU family is not saturating")
	}
	if !Tanh.Saturating() || !Sigmoid.Saturating() {
		t.Fatal("Tanh/Sigmoid are saturating")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	x := tensor.New(2, 3, 4)
	out := f.Forward(x)
	if out.Rank() != 1 || out.Size() != 24 {
		t.Fatalf("flatten out %v", out.Shape())
	}
	d := tensor.New(24)
	dx := f.BackwardSample(0, d)
	if dx.Rank() != 3 || dx.Dim(0) != 2 || dx.Dim(1) != 3 || dx.Dim(2) != 4 {
		t.Fatalf("flatten backward shape %v", dx.Shape())
	}
}

func TestNetworkParamRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	c := NewConv2D("conv", 1, 4, 4, 2, 3, 1, 1)
	c.Init(rng)
	fc := NewDense("fc", 2*4*4, 3)
	fc.Init(rng)
	net := NewNetwork(c, NewActivate("relu", ReLU), NewFlatten("flat"), fc)

	wantParams := 2*9 + 2 + 3*32 + 3
	if net.NumParams() != wantParams {
		t.Fatalf("NumParams = %d, want %d", net.NumParams(), wantParams)
	}
	// Round-trip every parameter through the flat interface.
	for _, i := range []int{0, 17, 18, 19, 20, wantParams - 1} {
		orig := net.ParamAt(i)
		net.SetParamAt(i, orig+1)
		if net.ParamAt(i) != orig+1 {
			t.Fatalf("SetParamAt(%d) did not round-trip", i)
		}
		net.SetParamAt(i, orig)
	}
	// Flat copy round-trip.
	vals := net.CopyParams()
	if len(vals) != wantParams {
		t.Fatalf("CopyParams len = %d", len(vals))
	}
	vals[0] += 5
	net.SetParams(vals)
	if net.ParamAt(0) != vals[0] {
		t.Fatal("SetParams did not apply")
	}
	// Names include layer prefixes.
	if name := net.ParamName(0); name != "conv.W[0]" {
		t.Fatalf("ParamName(0) = %q", name)
	}
	if name := net.ParamName(18); name != "conv.b[0]" {
		t.Fatalf("ParamName(18) = %q", name)
	}
}

func TestNetworkParamIndexOutOfRangePanics(t *testing.T) {
	net := NewNetwork(NewDense("fc", 2, 2))
	for _, i := range []int{-1, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ParamAt(%d) did not panic", i)
				}
			}()
			net.ParamAt(i)
		}()
	}
}

func TestNetworkSetParamsWrongLengthPanics(t *testing.T) {
	net := NewNetwork(NewDense("fc", 2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("SetParams wrong length did not panic")
		}
	}()
	net.SetParams(make([]float64, 5))
}

func TestVisitGradsOrderMatchesGradAt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fc1 := NewDense("fc1", 3, 4)
	fc1.Init(rng)
	fc2 := NewDense("fc2", 4, 2)
	fc2.Init(rng)
	net := NewNetwork(fc1, NewActivate("t", Tanh), fc2)
	x := tensor.New(3)
	x.FillNormal(rng, 0, 1)
	net.ZeroGrad()
	logits := net.Forward(x)
	net.Backward(OnesLike(logits))
	i := 0
	net.VisitGrads(func(idx int, g float64) {
		if idx != i {
			t.Fatalf("VisitGrads index %d, want %d", idx, i)
		}
		if g != net.GradAt(idx) {
			t.Fatalf("VisitGrads grad mismatch at %d", idx)
		}
		i++
	})
	if i != net.NumParams() {
		t.Fatalf("VisitGrads visited %d of %d", i, net.NumParams())
	}
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fc := NewDense("fc", 3, 2)
	fc.Init(rng)
	net := NewNetwork(fc)
	x := tensor.New(3)
	x.FillNormal(rng, 0, 1)
	logits := net.Forward(x)
	net.Backward(OnesLike(logits))
	net.ZeroGrad()
	for i := 0; i < net.NumParams(); i++ {
		if net.GradAt(i) != 0 {
			t.Fatalf("grad %d nonzero after ZeroGrad", i)
		}
	}
}

func TestGradAccumulationAcrossSamples(t *testing.T) {
	// Two backward passes accumulate: grad(a)+grad(b) == accumulated.
	rng := rand.New(rand.NewSource(23))
	fc := NewDense("fc", 3, 2)
	fc.Init(rng)
	net := NewNetwork(fc)
	a, b := tensor.New(3), tensor.New(3)
	a.FillNormal(rng, 0, 1)
	b.FillNormal(rng, 0, 1)

	grad := func(x *tensor.Tensor) []float64 {
		net.ZeroGrad()
		_, d := SoftmaxCrossEntropy(net.Forward(x), 0)
		net.Backward(d)
		out := make([]float64, net.NumParams())
		for i := range out {
			out[i] = net.GradAt(i)
		}
		return out
	}
	ga, gb := grad(a), grad(b)

	net.ZeroGrad()
	_, d := SoftmaxCrossEntropy(net.Forward(a), 0)
	net.Backward(d)
	_, d = SoftmaxCrossEntropy(net.Forward(b), 0)
	net.Backward(d)
	for i := 0; i < net.NumParams(); i++ {
		if math.Abs(net.GradAt(i)-(ga[i]+gb[i])) > 1e-12 {
			t.Fatalf("accumulation mismatch at %d", i)
		}
	}
}

func TestPredictReturnsArgmax(t *testing.T) {
	fc := NewDense("fc", 2, 3)
	copy(fc.Bias.W.Data(), []float64{0, 5, 1})
	net := NewNetwork(fc)
	if got := net.Predict(tensor.New(2)); got != 1 {
		t.Fatalf("Predict = %d, want 1", got)
	}
}
