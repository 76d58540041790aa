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
// Layers operate on batches: [B,C,H,W] images or [B,N] vectors, sample
// blocks contiguous and row-major. A single sample is a batch of one,
// so Network.Forward and Backward run the batched passes and there is
// no separate per-sample code. Every kernel gives each sample of a
// batch the instruction sequence it gets alone, so a sample's outputs
// and gradients are bit-identical at any batch size. A backward pass
// must follow a forward pass over the same batch, the usual tape
// discipline. The float32 inference path (f32.go) runs the same
// forward code at float32.
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

// Layer is one stage of a feed-forward network. It evaluates whole
// [B, ...] batches: ForwardBatch caches what the backward passes need,
// and each backward pass reads the caches of the last forward pass,
// batched or a batch of one. The caches hold the pass's own tensors,
// the input included, not copies, so an input must not change between
// the forward pass and the backward pass that reads it, and no layer
// writes its input or a cached tensor.
type Layer interface {
	// Forward is ForwardBatch on x, one sample ([C,H,W] or [N]), as a
	// batch of one; it returns the sample's output.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// ForwardBatch computes the layer output for a [B, ...] batch and
	// caches whatever the backward passes need.
	ForwardBatch(x *tensor.Tensor) *tensor.Tensor
	// BackwardBatch consumes the [B, ...] gradient with respect to the
	// last ForwardBatch's output, accumulates parameter gradients across
	// the batch in ascending sample order, and returns the [B, ...]
	// gradient with respect to the input.
	BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor
	// BackwardSample backpropagates sample b of the last ForwardBatch:
	// dOut is that sample's (batchless) output gradient, parameter
	// gradients accumulate that sample's terms only, and the sample's
	// input gradient is returned. The coverage extractor uses it to pull
	// per-sample ∇θ out of one batched forward pass.
	BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor
	// BackwardBatchInput is BackwardBatch without parameter-gradient
	// accumulation: the same bit-identical [B, ...] input gradient with
	// the dW/db work skipped — the right backward for input synthesis,
	// which never reads parameter gradients.
	BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor
	// ReleaseBatchState drops the caches of the last forward pass; the
	// next forward pass rebuilds them. A pending backward pass must run
	// before releasing.
	ReleaseBatchState()
	// Params returns the layer's learnable parameters (nil if stateless).
	Params() []*Param
	// Name identifies the layer in coverage reports and serialised form.
	Name() string
}

// BatchLayer is Layer: every layer evaluates batches. The name remains
// for callers that spell the batched passes' interface out.
type BatchLayer = Layer

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

// Forward runs the full stack on one sample as a batch of one and
// returns its logits.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor { return n.ForwardFrom(0, x) }

// ForwardFrom runs LayerStack[l:] on h, the input of layer l for one
// sample, as a batch of one and returns the logits; l = len(LayerStack)
// returns h. Every layer's forward pass is a pure function of its
// input and its own parameters, so when the layers before l hold the
// parameters h was recorded under (ForwardRecord), the result is
// bit-identical to Forward on the original input.
//
// Layers keep pointers to their inputs for the backward passes, and
// Flatten returns a view of its input, so a recorded input replayed
// many times is shared with those caches. It stays valid only while
// nothing writes it: no layer writes its input or a cached tensor, and
// a backward pass or tape that reused those buffers would have to copy
// them first.
func (n *Network) ForwardFrom(l int, h *tensor.Tensor) *tensor.Tensor {
	return unbatch(n.forwardBatchFrom(l, batchOfOne(h)))
}

// forwardBatchFrom runs LayerStack[l:] on the batch x.
func (n *Network) forwardBatchFrom(l int, x *tensor.Tensor) *tensor.Tensor {
	for _, layer := range n.LayerStack[l:] {
		x = layer.ForwardBatch(x)
	}
	return x
}

// ForwardRecord runs a full forward pass on x and records what a
// suffix replay needs: entry l of the result is the input of layer l
// when that layer owns parameters (nil otherwise), and the last entry,
// at len(LayerStack), is the logits. After an edit whose first changed
// parameter lies in layer l (LayerOf), ForwardFrom(l, rec[l]) gives the
// edited network's logits; with no edit the logits are rec's own.
func (n *Network) ForwardRecord(x *tensor.Tensor) []*tensor.Tensor {
	rec := make([]*tensor.Tensor, len(n.LayerStack)+1)
	h := batchOfOne(x)
	for l, layer := range n.LayerStack {
		if len(layer.Params()) > 0 {
			rec[l] = unbatch(h)
		}
		h = layer.ForwardBatch(h)
	}
	rec[len(n.LayerStack)] = unbatch(h)
	return rec
}

// InputShape returns the shape of one input sample: the geometry of
// the first layer that has one, [C,H,W] for a convolution or pooling
// layer and [In] for a dense layer (which takes any shape of that
// size), or nil when no layer has a geometry.
func (n *Network) InputShape() []int {
	for _, l := range n.LayerStack {
		switch t := l.(type) {
		case *Conv2D:
			return []int{t.InC, t.InH, t.InW}
		case *MaxPool2D:
			return []int{t.C, t.H, t.W}
		case *Dense:
			return []int{t.In}
		}
	}
	return nil
}

// LayerOf returns the LayerStack index of the layer whose Params hold
// the i-th scalar parameter in flat order.
func (n *Network) LayerOf(i int) int { return n.layerOf[n.locateParam(i)] }

// Backward propagates one sample's dLogits through the stack after a
// Forward, accumulating parameter gradients, and returns the gradient
// with respect to the network input: BackwardSample on the batch of
// one.
func (n *Network) Backward(dLogits *tensor.Tensor) *tensor.Tensor {
	return n.BackwardSample(0, dLogits)
}

// ForwardBatch runs the full stack over a [B, ...] batch and returns the
// [B, classes] logits. Every logits row is bit-identical to Forward on
// that sample alone.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return n.forwardBatchFrom(0, x) }

// BackwardBatch propagates a [B, classes] logits gradient through the
// stack (after a ForwardBatch), accumulating parameter gradients across
// the batch in ascending sample order — the sequence of backpropagating
// the samples one by one — and returns the [B, ...] input gradient.
func (n *Network) BackwardBatch(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].BackwardBatch(d)
	}
	return d
}

// BackwardSample propagates one sample's logits gradient through the
// stack against the caches of the last forward pass, accumulating that
// sample's parameter gradients only. Combined with ZeroGrad per sample
// it yields each sample's ∇θ, bit-identical to a batch of one.
func (n *Network) BackwardSample(b int, dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].BackwardSample(b, d)
	}
	return d
}

// BackwardBatchInput propagates a [B, classes] logits gradient through
// the stack like BackwardBatch but skips all parameter-gradient work;
// the returned input gradient is bit-identical. Input synthesis uses it
// — Algorithm 2 descends on the input and never reads ∇θ.
func (n *Network) BackwardBatchInput(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].BackwardBatchInput(d)
	}
	return d
}

// ReleaseBatchState drops the caches the last forward pass left on each
// layer (the inputs of dense and convolution layers, activation
// inputs/outputs, pooling winner indexes), batched or a batch of one.
// Call it after a batched workload when the network lives on, so the
// last batch's caches do not pin heap; the next forward pass rebuilds
// them. A pending backward pass must run before releasing.
func (n *Network) ReleaseBatchState() {
	for _, l := range n.LayerStack {
		l.ReleaseBatchState()
	}
}

// PredictBatch runs one batched forward pass and returns the argmax
// class of every sample's logits.
func (n *Network) PredictBatch(x *tensor.Tensor) []int {
	logits := n.ForwardBatch(x)
	b := logits.Dim(0)
	out := make([]int, b)
	for i := 0; i < b; i++ {
		out[i] = logits.Sample(i).Argmax()
	}
	return out
}

// batchOfOne returns one sample x as a [1, ...] batch sharing its data.
func batchOfOne[E tensor.Num](x *tensor.Dense[E]) *tensor.Dense[E] {
	return x.Reshape(append([]int{1}, x.Shape()...)...)
}

// unbatch returns the only sample of a batch of one as a view.
func unbatch[E tensor.Num](x *tensor.Dense[E]) *tensor.Dense[E] {
	return x.Reshape(x.Shape()[1:]...)
}

// forwardOne is l.ForwardBatch on one sample x as a batch of one: the
// Forward of every layer.
func forwardOne(l Layer, x *tensor.Tensor) *tensor.Tensor {
	return unbatch(l.ForwardBatch(batchOfOne(x)))
}

// batchDim returns the leading (batch) dimension of x.
func batchDim[E tensor.Num](x *tensor.Dense[E], name string) int {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s batch input must have a leading batch dimension, got %v", name, x.Shape()))
	}
	return x.Dim(0)
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
