package nn

import (
	"math"

	"repro/internal/tensor"
)

// Activation identifies a supported nonlinearity.
type Activation int

// Supported activations. ReLU is the CIFAR model's choice, Tanh the
// MNIST model's (paper Table I); Sigmoid and LeakyReLU round out the
// engine for the ε-threshold coverage experiments on saturating
// functions.
const (
	ReLU Activation = iota
	Tanh
	Sigmoid
	LeakyReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	case LeakyReLU:
		return "leakyrelu"
	default:
		return "unknown"
	}
}

// leakySlope is the negative-region slope of LeakyReLU.
const leakySlope = 0.01

// ScaleShift is a fixed (non-learnable) elementwise affine input
// normalisation y = A·x + B. Saturating-activation networks use it to
// centre [0,1] pixel inputs to [-1,1], the standard preprocessing for
// Tanh stacks.
type ScaleShift struct {
	LayerName string
	A, B      float64
}

// NewScaleShift constructs the normalisation layer.
func NewScaleShift(name string, a, b float64) *ScaleShift {
	return &ScaleShift{LayerName: name, A: a, B: b}
}

// Forward implements Layer.
func (s *ScaleShift) Forward(x *tensor.Tensor) *tensor.Tensor { return forwardOne(s, x) }

// ForwardBatch implements Layer; the affine map is elementwise and
// stateless.
func (s *ScaleShift) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return scaleShift(x, s.A, s.B) }

// scaleShift is the ScaleShift forward pass of both precisions:
// a·v + b for every element v of x, rounding the product before the
// add.
func scaleShift[E tensor.Num](x *tensor.Dense[E], a, b E) *tensor.Dense[E] {
	out := tensor.NewOf[E](x.Shape()...)
	od := out.Data()
	for i, v := range x.Data() {
		od[i] = E(v*a) + b
	}
	return out
}

// BackwardBatch implements Layer.
func (s *ScaleShift) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	dx := dOut.Clone()
	dx.Scale(s.A)
	return dx
}

// BackwardBatchInput implements Layer.
func (s *ScaleShift) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return s.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (s *ScaleShift) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return s.BackwardBatch(dOut)
}

// ReleaseBatchState implements Layer (ScaleShift keeps no state).
func (s *ScaleShift) ReleaseBatchState() {}

// Params implements Layer.
func (s *ScaleShift) Params() []*Param { return nil }

// Name implements Layer.
func (s *ScaleShift) Name() string { return s.LayerName }

// Saturating reports whether the activation has saturation regions where
// gradients approach but never exactly reach zero; such networks need an
// ε > 0 activation threshold (paper §IV-A).
func (a Activation) Saturating() bool { return a == Tanh || a == Sigmoid }

// Activate is an elementwise activation layer.
type Activate struct {
	LayerName string
	Fn        Activation

	inB, outB *tensor.Tensor // input and output of the last forward pass
}

// NewActivate constructs an activation layer.
func NewActivate(name string, fn Activation) *Activate {
	return &Activate{LayerName: name, Fn: fn}
}

// Forward implements Layer.
func (a *Activate) Forward(x *tensor.Tensor) *tensor.Tensor { return forwardOne(a, x) }

// ForwardBatch implements Layer; the activation is elementwise, so a
// batch is one longer slice.
func (a *Activate) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	a.inB = x
	a.outB = activate(a.Fn, x)
	return a.outB
}

// activate is the activation forward pass of both precisions: fn
// applied elementwise to x as a new tensor. The transcendental
// functions run in float64 and round once to E.
func activate[E tensor.Num](fn Activation, x *tensor.Dense[E]) *tensor.Dense[E] {
	out := tensor.NewOf[E](x.Shape()...)
	od, xd := out.Data(), x.Data()
	switch fn {
	case ReLU:
		for i, v := range xd {
			if v > 0 {
				od[i] = v
			}
		}
	case Tanh:
		for i, v := range xd {
			od[i] = E(math.Tanh(float64(v)))
		}
	case Sigmoid:
		for i, v := range xd {
			od[i] = E(1 / (1 + math.Exp(-float64(v))))
		}
	case LeakyReLU:
		for i, v := range xd {
			if v > 0 {
				od[i] = v
			} else {
				od[i] = leakySlope * v
			}
		}
	default:
		copy(od, xd)
	}
	return out
}

// BackwardBatch implements Layer.
func (a *Activate) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	return a.backwardWith(dOut, a.inB.Data(), a.outB.Data())
}

// BackwardBatchInput implements Layer (activations have no
// parameters).
func (a *Activate) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return a.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (a *Activate) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	n := dOut.Size()
	return a.backwardWith(dOut, a.inB.Data()[b*n:(b+1)*n], a.outB.Data()[b*n:(b+1)*n])
}

// ReleaseBatchState implements Layer.
func (a *Activate) ReleaseBatchState() { a.inB, a.outB = nil, nil }

// backwardWith is the elementwise backward kernel against the cached
// forward slices of a batch or of one of its samples.
func (a *Activate) backwardWith(dOut *tensor.Tensor, in, out []float64) *tensor.Tensor {
	dx := dOut.Clone()
	dd := dx.Data()
	switch a.Fn {
	case ReLU:
		for i := range dd {
			if in[i] <= 0 {
				dd[i] = 0
			}
		}
	case Tanh:
		for i := range dd {
			dd[i] *= 1 - out[i]*out[i]
		}
	case Sigmoid:
		for i := range dd {
			dd[i] *= out[i] * (1 - out[i])
		}
	case LeakyReLU:
		for i := range dd {
			if in[i] <= 0 {
				dd[i] *= leakySlope
			}
		}
	}
	return dx
}

// Params implements Layer.
func (a *Activate) Params() []*Param { return nil }

// Name implements Layer.
func (a *Activate) Name() string { return a.LayerName }
