// Package nn implements the from-scratch neural network engine the
// reproduction runs on: convolution, pooling, dense and activation
// layers with exact forward and backward passes, softmax cross-entropy
// loss, and a Network container with a flat parameter registry.
//
// Gradients are computed with respect to both the parameters (training,
// GDA attack, and the ∇θF(x) parameter-activation analysis at the heart
// of the paper) and the input (the paper's Algorithm 2 synthesises test
// inputs by gradient descent on the input).
//
// Layers operate on single samples ([C,H,W] images or [N] vectors); the
// training loop batches by accumulating parameter gradients across
// samples. Backward must follow a Forward of the same input, the usual
// tape discipline.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is one learnable tensor of a layer together with its gradient
// accumulator. Backward adds into Grad; callers zero it between uses.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is one stage of a feed-forward network.
type Layer interface {
	// Forward computes the layer output for x and caches whatever the
	// backward pass needs.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient with respect to the last Forward's
	// output, accumulates parameter gradients, and returns the gradient
	// with respect to the input.
	Backward(dOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (nil if stateless).
	Params() []*Param
	// Name identifies the layer in coverage reports and serialised form.
	Name() string
}

// Network is an ordered stack of layers ending in logits (the softmax is
// applied by the loss functions, not stored as a layer).
type Network struct {
	LayerStack []Layer

	offsets []int // flat offset of each Param across the whole network
	flat    []*Param
	layerOf []int // LayerStack index of the layer owning each Param
	total   int
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network {
	n := &Network{LayerStack: layers}
	n.index()
	return n
}

func (n *Network) index() {
	n.flat = n.flat[:0]
	n.offsets = n.offsets[:0]
	n.layerOf = n.layerOf[:0]
	n.total = 0
	for li, l := range n.LayerStack {
		for _, p := range l.Params() {
			n.flat = append(n.flat, p)
			n.offsets = append(n.offsets, n.total)
			n.layerOf = append(n.layerOf, li)
			n.total += p.W.Size()
		}
	}
}

// Forward runs the full stack and returns the logits.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor { return n.ForwardFrom(0, x) }

// ForwardFrom runs LayerStack[l:] on h, the input of layer l, and
// returns the logits; l = len(LayerStack) returns h. Every layer's
// Forward is a pure function of its input and its own parameters, so
// when the layers before l hold the parameters h was recorded under
// (ForwardRecord), the result is bit-identical to Forward on the
// original input.
//
// Layers keep pointers to their inputs for the backward pass
// (Conv2D.x, Dense.x, Activate.in) and Flatten returns a view of its
// input, so a recorded input replayed many times is shared with those
// caches. It stays valid only while nothing writes it: no layer writes
// its input or a cached tensor today, and a backward pass or tape that
// reused those buffers would have to copy them first.
func (n *Network) ForwardFrom(l int, h *tensor.Tensor) *tensor.Tensor {
	for _, layer := range n.LayerStack[l:] {
		h = layer.Forward(h)
	}
	return h
}

// ForwardRecord runs a full forward pass on x and records what a
// suffix replay needs: entry l of the result is the input of layer l
// when that layer owns parameters (nil otherwise), and the last entry,
// at len(LayerStack), is the logits. After an edit whose first changed
// parameter lies in layer l (LayerOf), ForwardFrom(l, rec[l]) gives the
// edited network's logits; with no edit the logits are rec's own.
func (n *Network) ForwardRecord(x *tensor.Tensor) []*tensor.Tensor {
	rec := make([]*tensor.Tensor, len(n.LayerStack)+1)
	for l, layer := range n.LayerStack {
		if len(layer.Params()) > 0 {
			rec[l] = x
		}
		x = layer.Forward(x)
	}
	rec[len(n.LayerStack)] = x
	return rec
}

// LayerOf returns the LayerStack index of the layer whose Params hold
// the i-th scalar parameter in flat order.
func (n *Network) LayerOf(i int) int { return n.layerOf[n.locateParam(i)] }

// Backward propagates dLogits through the stack (after a Forward),
// accumulating parameter gradients, and returns the gradient with
// respect to the network input.
func (n *Network) Backward(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].Backward(d)
	}
	return d
}

// Params returns every learnable parameter tensor in network order.
func (n *Network) Params() []*Param { return n.flat }

// ZeroGrad clears every parameter gradient accumulator.
func (n *Network) ZeroGrad() {
	for _, p := range n.flat {
		p.Grad.Zero()
	}
}

// NumParams returns the total number of scalar parameters; the
// denominator of the paper's validation-coverage metric (Eq. 3).
func (n *Network) NumParams() int { return n.total }

// locate maps a flat parameter index to its Param and inner offset.
func (n *Network) locate(i int) (*Param, int) {
	k := n.locateParam(i)
	return n.flat[k], i - n.offsets[k]
}

// locateParam maps a flat parameter index to the index of its Param in
// the registry.
func (n *Network) locateParam(i int) int {
	if i < 0 || i >= n.total {
		panic(fmt.Sprintf("nn: parameter index %d out of range [0,%d)", i, n.total))
	}
	// binary search over offsets
	lo, hi := 0, len(n.offsets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if n.offsets[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ParamAt returns the value of the i-th scalar parameter in flat order.
func (n *Network) ParamAt(i int) float64 {
	p, off := n.locate(i)
	return p.W.Data()[off]
}

// SetParamAt stores v into the i-th scalar parameter; the primitive the
// fault-injection attacks use.
func (n *Network) SetParamAt(i int, v float64) {
	p, off := n.locate(i)
	p.W.Data()[off] = v
}

// GradAt returns the accumulated gradient of the i-th scalar parameter.
func (n *Network) GradAt(i int) float64 {
	p, off := n.locate(i)
	return p.Grad.Data()[off]
}

// ParamName returns a human-readable name for the i-th scalar parameter,
// e.g. "conv1.W[12]".
func (n *Network) ParamName(i int) string {
	p, off := n.locate(i)
	return fmt.Sprintf("%s[%d]", p.Name, off)
}

// CopyParams returns all scalar parameters as one flat slice.
func (n *Network) CopyParams() []float64 {
	out := make([]float64, 0, n.total)
	for _, p := range n.flat {
		out = append(out, p.W.Data()...)
	}
	return out
}

// SetParams overwrites all scalar parameters from one flat slice, the
// inverse of CopyParams. It panics on a length mismatch.
func (n *Network) SetParams(vals []float64) {
	if len(vals) != n.total {
		panic(fmt.Sprintf("nn: SetParams got %d values, want %d", len(vals), n.total))
	}
	off := 0
	for _, p := range n.flat {
		copy(p.W.Data(), vals[off:off+p.W.Size()])
		off += p.W.Size()
	}
}

// VisitGrads calls fn(flatIndex, grad) for every scalar parameter, in
// flat order, without allocating. Coverage extraction uses this to fill
// activation bitsets.
func (n *Network) VisitGrads(fn func(i int, g float64)) {
	idx := 0
	for _, p := range n.flat {
		for _, g := range p.Grad.Data() {
			fn(idx, g)
			idx++
		}
	}
}

// Predict runs a forward pass and returns the argmax class of the
// logits; the black-box answer an IP user sees.
func (n *Network) Predict(x *tensor.Tensor) int {
	return n.Forward(x).Argmax()
}
