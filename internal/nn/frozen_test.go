package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// f32TestNet builds a full conv-pool-act-dense stack with the given
// activation, deterministically initialised.
func f32TestNet(act Activation) *Network {
	rng := rand.New(rand.NewSource(99))
	c1 := NewConv2D("conv1", 1, 10, 10, 4, 3, 1, 1)
	c1.Init(rng)
	d1 := NewDense("fc1", 4*5*5, 16)
	d1.Init(rng)
	d2 := NewDense("fc2", 16, 4)
	d2.Init(rng)
	return NewNetwork(
		NewScaleShift("norm", 2, -1),
		c1,
		NewActivate("a1", act),
		NewMaxPool2D("pool", 4, 10, 10, 2, 2),
		NewFlatten("flat"),
		d1,
		NewActivate("a2", act),
		d2,
	)
}

func f32TestInputs(n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(5))
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(1, 10, 10)
		xs[i].FillNormal(rng, 0.5, 0.2)
		xs[i].Clamp(0, 1)
	}
	return xs
}

// TestFreezeF32MatchesFloat64: the float32 forward pass must agree
// with the float64 reference within float32 rounding, for every
// activation and both per-sample and batched evaluation.
func TestFreezeF32MatchesFloat64(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh, Sigmoid, LeakyReLU} {
		net := f32TestNet(act)
		f32 := Freeze[float32](net)
		xs := f32TestInputs(5)
		const tol = 1e-4
		for i, x := range xs {
			want := net.Forward(x)
			got := f32.Forward(x.F32())
			if got.Size() != want.Size() {
				t.Fatalf("%v: f32 output size %d, want %d", act, got.Size(), want.Size())
			}
			for j := range want.Data() {
				if d := math.Abs(float64(got.Data()[j]) - want.Data()[j]); d > tol {
					t.Fatalf("%v: input %d logit %d off by %g (f32 %v vs f64 %v)",
						act, i, j, d, got.Data()[j], want.Data()[j])
				}
			}
		}
	}
}

// TestF32ForwardBatchBitIdenticalToPerSample: the float32 batched
// forward must reproduce the float32 per-sample forward bitwise — the
// same kernel-sequence argument as the float64 engine's guarantee.
func TestF32ForwardBatchBitIdenticalToPerSample(t *testing.T) {
	for _, act := range []Activation{ReLU, Tanh} {
		f32 := Freeze[float32](f32TestNet(act))
		xs := f32TestInputs(6)
		xs32 := make([]*tensor.T32, len(xs))
		for i, x := range xs {
			xs32[i] = x.F32()
		}
		logits := f32.ForwardBatch(tensor.Stack(xs32))
		for i, x := range xs32 {
			want := f32.Forward(x)
			row := logits.Sample(i)
			for j := range want.Data() {
				if row.Data()[j] != want.Data()[j] {
					t.Fatalf("%v: batched f32 logit [%d][%d] = %x, want %x",
						act, i, j, row.Data()[j], want.Data()[j])
				}
			}
		}
	}
}

// TestFrozenIgnoresLaterEdits: a snapshot keeps the parameters it was
// frozen with when its source is edited afterwards, at both
// precisions, and a fresh freeze of the edited source sees the edit.
func TestFrozenIgnoresLaterEdits(t *testing.T) {
	net := f32TestNet(ReLU)
	x := f32TestInputs(1)[0]
	f64, f32 := Freeze[float64](net), Freeze[float32](net)
	before64, before32 := f64.Forward(x).Clone(), f32.Forward(x.F32()).Clone()

	net.SetParamAt(0, net.ParamAt(0)+1)
	if !slices.Equal(f64.Forward(x).Data(), before64.Data()) || !slices.Equal(f32.Forward(x.F32()).Data(), before32.Data()) {
		t.Fatal("a snapshot observed an edit of its source")
	}
	fresh64, fresh32 := Freeze[float64](net).Forward(x), Freeze[float32](net).Forward(x.F32())
	if !slices.Equal(fresh64.Data(), net.Forward(x).Data()) {
		t.Fatal("a fresh float64 freeze differs from the edited network")
	}
	if slices.Equal(fresh64.Data(), before64.Data()) || slices.Equal(fresh32.Data(), before32.Data()) {
		t.Fatal("a fresh freeze did not see the edit")
	}
}
