package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// This file implements the float32 inference path: NetF32 is a
// forward-only clone of a Network whose parameters and arithmetic are
// float32, halving the memory traffic of the bandwidth-bound serving
// GEMMs. Only the forward pass exists — training, gradients and the
// coverage analysis stay float64, where the bit-identical suite
// guarantees live. A float32 output approximates the float64 reference
// to rounding error, so replay comparisons against float64-recorded
// suites must run under an explicit tolerance (validate's Tolerance
// knob), never the bit-exact mode.
//
// Each float32 layer runs the float64 layer's forward code at float32
// (convForward, denseForward, maxPool, activate, scaleShift, flatten)
// on its converted parameters, so a single sample is again a batch of
// one and its logits are bit-identical at any batch size.

// layerF32 is one forward-only float32 stage of a NetF32.
type layerF32 interface {
	forwardBatch(x *tensor.T32) *tensor.T32
	// syncFrom re-quantises the layer's parameters from its float64
	// counterpart; a no-op for stateless layers.
	syncFrom(src Layer)
	clone() layerF32
}

// NetF32 is a float32 inference clone of a Network. Forward and
// ForwardBatch allocate their intermediates per call and keep no
// per-input caches, but SyncParamsFrom mutates the weights in place, so
// concurrent evaluation must be fenced from parameter updates — a
// ClonePoolF32 provides exactly that discipline for serving fleets.
type NetF32 struct {
	layers []layerF32
}

// ConvertF32 returns a float32 inference clone of the network: same
// architecture, parameters converted with float32(v). All layer kinds
// the serializer understands are supported; unknown kinds panic,
// mirroring CloneArchitecture.
func (n *Network) ConvertF32() *NetF32 {
	layers := make([]layerF32, 0, len(n.LayerStack))
	for _, l := range n.LayerStack {
		var fl layerF32
		switch t := l.(type) {
		case *Conv2D:
			fl = &convF32{name: t.LayerName, geom: t.geom, outC: t.OutC, weight: t.Weight.W.F32(), bias: t.Bias.W.F32()}
		case *Dense:
			fl = &denseF32{name: t.LayerName, in: t.In, weight: t.Weight.W.F32(), bias: t.Bias.W.F32()}
		case *MaxPool2D:
			fl = maxPoolF32{name: t.LayerName, geom: t.geom}
		case *Activate:
			fl = activateF32{t.Fn}
		case *Flatten:
			fl = flattenF32{}
		case *ScaleShift:
			fl = scaleShiftF32{a: float32(t.A), b: float32(t.B)}
		default:
			panic(fmt.Sprintf("nn: cannot convert layer type %T to float32", l))
		}
		layers = append(layers, fl)
	}
	return &NetF32{layers: layers}
}

// Forward runs the float32 stack on a single sample as a batch of one
// and returns the logits.
func (n *NetF32) Forward(x *tensor.T32) *tensor.T32 { return unbatch(n.ForwardBatch(batchOfOne(x))) }

// ForwardBatch runs the float32 stack over a [B, ...] batch and returns
// the [B, classes] logits; every row is bit-identical to Forward on
// that sample alone.
func (n *NetF32) ForwardBatch(x *tensor.T32) *tensor.T32 {
	for _, l := range n.layers {
		x = l.forwardBatch(x)
	}
	return x
}

// Predict runs a forward pass and returns the argmax class.
func (n *NetF32) Predict(x *tensor.T32) int { return n.Forward(x).Argmax() }

// Clone returns a deep copy of the float32 network (parameters copied,
// no shared mutable state) — one clone per concurrent evaluator, the
// same discipline as Network.Clone.
func (n *NetF32) Clone() *NetF32 {
	layers := make([]layerF32, len(n.layers))
	for i, l := range n.layers {
		layers[i] = l.clone()
	}
	return &NetF32{layers: layers}
}

// SyncParamsFrom re-quantises every parameter from the float64 master
// without allocating — the hot parameter update of a float32 serving
// fleet. The master must have the architecture this clone was converted
// from; a mismatch panics like Network.SyncParamsFrom does.
func (n *NetF32) SyncParamsFrom(src *Network) {
	if len(n.layers) != len(src.LayerStack) {
		panic(fmt.Sprintf("nn: SyncParamsFrom across different architectures (%d vs %d layers)", len(n.layers), len(src.LayerStack)))
	}
	for i, l := range n.layers {
		l.syncFrom(src.LayerStack[i])
	}
}

type convF32 struct {
	name         string
	geom         tensor.ConvGeom
	outC         int
	weight, bias *tensor.T32
}

func (c *convF32) forwardBatch(x *tensor.T32) *tensor.T32 {
	return convForward(c.name, c.geom, c.outC, x, c.weight, c.bias)
}

func (c *convF32) syncFrom(src Layer) {
	s, ok := src.(*Conv2D)
	if !ok {
		panic(fmt.Sprintf("nn: SyncParamsFrom layer mismatch: conv/f32 vs %T", src))
	}
	tensor.ConvertInto(c.weight, s.Weight.W)
	tensor.ConvertInto(c.bias, s.Bias.W)
}

func (c *convF32) clone() layerF32 {
	cp := *c
	cp.weight, cp.bias = c.weight.Clone(), c.bias.Clone()
	return &cp
}

type denseF32 struct {
	name         string
	in           int
	weight, bias *tensor.T32
}

func (d *denseF32) forwardBatch(x *tensor.T32) *tensor.T32 {
	return denseForward(denseRows(d.name, d.in, x), d.weight, d.bias)
}

func (d *denseF32) syncFrom(src Layer) {
	s, ok := src.(*Dense)
	if !ok {
		panic(fmt.Sprintf("nn: SyncParamsFrom layer mismatch: dense/f32 vs %T", src))
	}
	tensor.ConvertInto(d.weight, s.Weight.W)
	tensor.ConvertInto(d.bias, s.Bias.W)
}

func (d *denseF32) clone() layerF32 {
	cp := *d
	cp.weight, cp.bias = d.weight.Clone(), d.bias.Clone()
	return &cp
}

// The stateless float32 layers are values: cloning copies them.

type maxPoolF32 struct {
	name string
	geom tensor.ConvGeom
}

func (m maxPoolF32) forwardBatch(x *tensor.T32) *tensor.T32 { return maxPool(m.name, m.geom, x, nil) }

type activateF32 struct{ fn Activation }

func (a activateF32) forwardBatch(x *tensor.T32) *tensor.T32 { return activate(a.fn, x) }

type scaleShiftF32 struct{ a, b float32 }

func (s scaleShiftF32) forwardBatch(x *tensor.T32) *tensor.T32 { return scaleShift(x, s.a, s.b) }

type flattenF32 struct{}

func (flattenF32) forwardBatch(x *tensor.T32) *tensor.T32 { return flatten("flatten/f32", x) }

func (m maxPoolF32) syncFrom(Layer)     {}
func (m maxPoolF32) clone() layerF32    { return m }
func (a activateF32) syncFrom(Layer)    {}
func (a activateF32) clone() layerF32   { return a }
func (s scaleShiftF32) syncFrom(Layer)  {}
func (s scaleShiftF32) clone() layerF32 { return s }
func (flattenF32) syncFrom(Layer)       {}
func (f flattenF32) clone() layerF32    { return f }
