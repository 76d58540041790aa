package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Frozen is a forward-only snapshot of a Network at precision E. Freeze
// copies the parameters, converted with E(v), and nothing changes them
// afterwards; a forward pass keeps no per-call state. So one snapshot
// serves any number of concurrent forward passes, and a parameter
// update is a fresh snapshot that replaces the old one while the passes
// already running finish on the old.
//
// Each frozen layer runs its float64 layer's forward code at E
// (convForward, denseForward, maxPool, activate, scaleShift, flatten)
// under the float64 layer's name. So Frozen[float64] logits are
// bit-identical to Network.ForwardBatch, shape panics read the same,
// and a single sample, a batch of one, gets the logits it gets in any
// batch. Only the forward pass exists: training, gradients and the
// coverage analysis stay on Network, where the bit-identical suite
// guarantees live. Frozen[float32] halves the memory traffic of the
// bandwidth-bound serving kernels; its outputs approximate the float64
// reference to rounding error, so replay comparisons against
// float64-recorded suites must run under an explicit tolerance
// (validate's Tolerance knob), never the bit-exact mode.
type Frozen[E tensor.Num] struct {
	layers []func(x *tensor.Dense[E]) *tensor.Dense[E]
	sizes  []int // parameter tensor sizes in registry order
}

// Freeze snapshots n at precision E. All layer kinds the serializer
// understands are supported; unknown kinds panic, mirroring
// CloneArchitecture.
func Freeze[E tensor.Num](n *Network) *Frozen[E] {
	f := &Frozen[E]{sizes: make([]int, len(n.flat))}
	for i, p := range n.flat {
		f.sizes[i] = p.W.Size()
	}
	for _, l := range n.LayerStack {
		f.layers = append(f.layers, freezeLayer[E](l))
	}
	return f
}

// freezeLayer returns l's forward pass at precision E over copies of
// its parameters and settings.
func freezeLayer[E tensor.Num](l Layer) func(*tensor.Dense[E]) *tensor.Dense[E] {
	switch t := l.(type) {
	case *Conv2D:
		name, g, outC := t.LayerName, t.geom, t.OutC
		w, b := convertTo[E](t.Weight.W), convertTo[E](t.Bias.W)
		return func(x *tensor.Dense[E]) *tensor.Dense[E] { return convForward(name, g, outC, x, w, b) }
	case *Dense:
		name, in := t.LayerName, t.In
		w, b := convertTo[E](t.Weight.W), convertTo[E](t.Bias.W)
		return func(x *tensor.Dense[E]) *tensor.Dense[E] { return denseForward(denseRows(name, in, x), w, b) }
	case *MaxPool2D:
		name, g := t.LayerName, t.geom
		return func(x *tensor.Dense[E]) *tensor.Dense[E] { return maxPool(name, g, x, nil) }
	case *Activate:
		fn := t.Fn
		return func(x *tensor.Dense[E]) *tensor.Dense[E] { return activate(fn, x) }
	case *Flatten:
		name := t.LayerName
		return func(x *tensor.Dense[E]) *tensor.Dense[E] { return flatten(name, x) }
	case *ScaleShift:
		a, b := E(t.A), E(t.B)
		return func(x *tensor.Dense[E]) *tensor.Dense[E] { return scaleShift(x, a, b) }
	}
	panic(fmt.Sprintf("nn: cannot freeze layer type %T", l))
}

// convertTo returns a copy of t at precision E.
func convertTo[E tensor.Num](t *tensor.Tensor) *tensor.Dense[E] {
	c := tensor.NewOf[E](t.Shape()...)
	tensor.ConvertInto(c, t)
	return c
}

// Forward runs the snapshot on a single sample as a batch of one and
// returns its logits.
func (f *Frozen[E]) Forward(x *tensor.Dense[E]) *tensor.Dense[E] {
	return unbatch(f.ForwardBatch(batchOfOne(x)))
}

// ForwardBatch runs the snapshot over a [B, ...] batch and returns the
// [B, classes] logits; every row is bit-identical to Forward on that
// sample alone.
func (f *Frozen[E]) ForwardBatch(x *tensor.Dense[E]) *tensor.Dense[E] {
	for _, l := range f.layers {
		x = l(x)
	}
	return x
}

// CheckSync panics, with Network.SyncParamsFrom's message, unless src
// has the parameter registry of the network f was frozen from: the
// same count and sizes of parameter tensors. A hot update runs it
// before freezing src, so a snapshot is only ever replaced by one of
// the same shape.
func (f *Frozen[E]) CheckSync(src *Network) {
	checkRegistry(len(f.sizes), func(i int) int { return f.sizes[i] }, src, "SyncParamsFrom")
}
