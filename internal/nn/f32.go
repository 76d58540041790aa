package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// This file implements the float32 inference path: NetF32 is a
// forward-only clone of a Network whose parameters and arithmetic are
// float32, halving the memory traffic of the bandwidth-bound serving
// GEMMs. Only Forward/ForwardBatch exist — training, gradients and the
// coverage analysis stay float64, where the bit-identical suite
// guarantees live. A float32 output approximates the float64 reference
// to rounding error, so replay comparisons against float64-recorded
// suites must run under an explicit tolerance (validate's Tolerance
// knob), never the bit-exact mode.
//
// The forward passes mirror the float64 layers operation for operation
// (same direct-convolution and GEMM kernels via the generic tensor
// layer, same bias/activation loops), so the float32 batched path is
// bit-identical to the float32 per-sample path for the same reason the
// float64 one is.

// layerF32 is one forward-only float32 stage of a NetF32.
type layerF32 interface {
	forward(x *tensor.T32) *tensor.T32
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
			fl = &convF32{
				inC: t.InC, inH: t.InH, inW: t.InW, outC: t.OutC,
				geom:   t.Geom(),
				weight: t.Weight.W.F32(),
				bias:   t.Bias.W.F32(),
			}
		case *Dense:
			fl = &denseF32{in: t.In, out: t.Out, weight: t.Weight.W.F32(), bias: t.Bias.W.F32()}
		case *MaxPool2D:
			fl = &maxPoolF32{c: t.C, h: t.H, w: t.W, k: t.K, stride: t.Stride, geom: t.Geom()}
		case *Activate:
			fl = &activateF32{fn: t.Fn}
		case *Flatten:
			fl = flattenF32{}
		case *ScaleShift:
			fl = &scaleShiftF32{a: float32(t.A), b: float32(t.B)}
		default:
			panic(fmt.Sprintf("nn: cannot convert layer type %T to float32", l))
		}
		layers = append(layers, fl)
	}
	return &NetF32{layers: layers}
}

// Forward runs the float32 stack on a single sample and returns the
// logits.
func (n *NetF32) Forward(x *tensor.T32) *tensor.T32 {
	for _, l := range n.layers {
		x = l.forward(x)
	}
	return x
}

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

// --- Conv2D ---

type convF32 struct {
	inC, inH, inW, outC int
	geom                tensor.ConvGeom
	weight              *tensor.T32 // [OutC, InC*K*K]
	bias                *tensor.T32 // [OutC]
}

func (c *convF32) forward(x *tensor.T32) *tensor.T32 {
	if x.Rank() != 3 || x.Dim(0) != c.inC || x.Dim(1) != c.inH || x.Dim(2) != c.inW {
		panic(fmt.Sprintf("nn: conv/f32 expects input [%d %d %d], got %v", c.inC, c.inH, c.inW, x.Shape()))
	}
	out := tensor.New32(c.outC, c.geom.OutH, c.geom.OutW)
	tensor.ConvForward(out, x, c.weight, c.bias, c.geom)
	return out
}

func (c *convF32) forwardBatch(x *tensor.T32) *tensor.T32 {
	if x.Rank() != 4 || x.Dim(1) != c.inC || x.Dim(2) != c.inH || x.Dim(3) != c.inW {
		panic(fmt.Sprintf("nn: conv/f32 expects batch input [B %d %d %d], got %v", c.inC, c.inH, c.inW, x.Shape()))
	}
	out := tensor.New32(x.Dim(0), c.outC, c.geom.OutH, c.geom.OutW)
	tensor.ConvForward(out, x, c.weight, c.bias, c.geom)
	return out
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
	cp.weight = c.weight.Clone()
	cp.bias = c.bias.Clone()
	return &cp
}

// --- Dense ---

type denseF32 struct {
	in, out int
	weight  *tensor.T32 // [Out, In]
	bias    *tensor.T32 // [Out]
}

func (d *denseF32) forward(x *tensor.T32) *tensor.T32 {
	if x.Size() != d.in {
		panic(fmt.Sprintf("nn: dense/f32 expects %d inputs, got %v", d.in, x.Shape()))
	}
	out := tensor.MatVec(d.weight, x.Reshape(d.in))
	out.AddInPlace(d.bias)
	return out
}

func (d *denseF32) forwardBatch(x *tensor.T32) *tensor.T32 {
	b := x.Dim(0)
	if x.Size() != b*d.in {
		panic(fmt.Sprintf("nn: dense/f32 expects %d inputs per sample, got %v", d.in, x.Shape()))
	}
	out := tensor.MatMulTB(x.Reshape(b, d.in), d.weight) // [B, Out]
	od, bd := out.Data(), d.bias.Data()
	for s := 0; s < b; s++ {
		row := od[s*d.out : (s+1)*d.out]
		for o, bv := range bd {
			row[o] += bv
		}
	}
	return out
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
	cp.weight = d.weight.Clone()
	cp.bias = d.bias.Clone()
	return &cp
}

// --- MaxPool2D ---

type maxPoolF32 struct {
	c, h, w, k, stride int
	geom               tensor.ConvGeom
}

func (m *maxPoolF32) forward(x *tensor.T32) *tensor.T32 {
	if x.Rank() != 3 || x.Dim(0) != m.c || x.Dim(1) != m.h || x.Dim(2) != m.w {
		panic(fmt.Sprintf("nn: maxpool/f32 expects input [%d %d %d], got %v", m.c, m.h, m.w, x.Shape()))
	}
	out := tensor.New32(m.c, m.geom.OutH, m.geom.OutW)
	m.poolSample(x.Data(), out.Data())
	return out
}

func (m *maxPoolF32) forwardBatch(x *tensor.T32) *tensor.T32 {
	if x.Rank() != 4 || x.Dim(1) != m.c || x.Dim(2) != m.h || x.Dim(3) != m.w {
		panic(fmt.Sprintf("nn: maxpool/f32 expects batch input [B %d %d %d], got %v", m.c, m.h, m.w, x.Shape()))
	}
	b := x.Dim(0)
	out := tensor.New32(b, m.c, m.geom.OutH, m.geom.OutW)
	inSz := m.c * m.h * m.w
	outSz := m.c * m.geom.OutH * m.geom.OutW
	xd, od := x.Data(), out.Data()
	for s := 0; s < b; s++ {
		m.poolSample(xd[s*inSz:(s+1)*inSz], od[s*outSz:(s+1)*outSz])
	}
	return out
}

// poolSample is the forward-only window scan: MaxPool2D.poolSample
// without the winner-index bookkeeping the backward pass needs.
func (m *maxPoolF32) poolSample(xd, od []float32) {
	oh, ow := m.geom.OutH, m.geom.OutW
	oi2 := 0
	for c := 0; c < m.c; c++ {
		chanBase := c * m.h * m.w
		for oi := 0; oi < oh; oi++ {
			for oj := 0; oj < ow; oj++ {
				var best float32
				first := true
				for ki := 0; ki < m.k; ki++ {
					ii := oi*m.stride + ki
					rowBase := chanBase + ii*m.w
					for kj := 0; kj < m.k; kj++ {
						jj := oj*m.stride + kj
						if v := xd[rowBase+jj]; first || v > best {
							best = v
							first = false
						}
					}
				}
				od[oi2] = best
				oi2++
			}
		}
	}
}

func (m *maxPoolF32) syncFrom(Layer) {}

func (m *maxPoolF32) clone() layerF32 {
	cp := *m
	return &cp
}

// --- Activate ---

type activateF32 struct {
	fn Activation
}

func (a *activateF32) apply(x *tensor.T32) *tensor.T32 {
	out := x.Clone()
	switch a.fn {
	case ReLU:
		out.Apply(func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		})
	case Tanh:
		out.Apply(func(v float32) float32 { return float32(math.Tanh(float64(v))) })
	case Sigmoid:
		out.Apply(func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) })
	case LeakyReLU:
		out.Apply(func(v float32) float32 {
			if v > 0 {
				return v
			}
			return leakySlope * v
		})
	}
	return out
}

func (a *activateF32) forward(x *tensor.T32) *tensor.T32      { return a.apply(x) }
func (a *activateF32) forwardBatch(x *tensor.T32) *tensor.T32 { return a.apply(x) }
func (a *activateF32) syncFrom(Layer)                         {}
func (a *activateF32) clone() layerF32                        { cp := *a; return &cp }

// --- ScaleShift ---

type scaleShiftF32 struct {
	a, b float32
}

func (s *scaleShiftF32) apply(x *tensor.T32) *tensor.T32 {
	out := x.Clone()
	out.Apply(func(v float32) float32 { return v*s.a + s.b })
	return out
}

func (s *scaleShiftF32) forward(x *tensor.T32) *tensor.T32      { return s.apply(x) }
func (s *scaleShiftF32) forwardBatch(x *tensor.T32) *tensor.T32 { return s.apply(x) }
func (s *scaleShiftF32) syncFrom(Layer)                         {}
func (s *scaleShiftF32) clone() layerF32                        { cp := *s; return &cp }

// --- Flatten ---

type flattenF32 struct{}

func (flattenF32) forward(x *tensor.T32) *tensor.T32 { return x.Reshape(x.Size()) }
func (flattenF32) forwardBatch(x *tensor.T32) *tensor.T32 {
	b := x.Dim(0)
	return x.Reshape(b, x.Size()/b)
}
func (flattenF32) syncFrom(Layer)    {}
func (f flattenF32) clone() layerF32 { return f }
