package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// This file adds the real batch dimension to the engine. Every layer
// implements BatchLayer: ForwardBatch/BackwardBatch operate on [B, ...]
// tensors (sample blocks contiguous, row-major), and BackwardSample
// backpropagates one sample of the last ForwardBatch on its own.
//
// The batched paths are *bit-identical* to the per-sample ones:
//
//   - Batched dense products reuse the serial GEMM kernels with the
//     batch folded into rows, and the direct convolution kernels run
//     each sample of a batch through the per-sample sequence, so every
//     output cell is produced by exactly the per-sample instruction
//     sequence (same accumulation order, same zero-skips,
//     multiplication operand order immaterial).
//   - Parameter gradients accumulate across the batch in ascending
//     sample order, the order of the serial per-sample loop.
//
// This is what lets the coverage engine and the suite generators batch
// candidate evaluation while preserving the bit-identical-suite
// guarantee established in PR 1, and composes with the worker pool:
// batch inside a worker, workers across batches.

// BatchLayer is a Layer that can evaluate a whole [B, ...] batch at
// once. All layers in this package implement it.
type BatchLayer interface {
	Layer
	// ForwardBatch computes the layer output for a [B, ...] batch and
	// caches whatever the batched backward passes need.
	ForwardBatch(x *tensor.Tensor) *tensor.Tensor
	// BackwardBatch consumes the [B, ...] gradient with respect to the
	// last ForwardBatch's output, accumulates parameter gradients across
	// the batch in ascending sample order, and returns the [B, ...]
	// gradient with respect to the input.
	BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor
	// BackwardSample backpropagates sample b of the last ForwardBatch:
	// dOut is that sample's (batchless) output gradient, parameter
	// gradients accumulate exactly as the per-sample Backward would, and
	// the sample's input gradient is returned. The coverage extractor
	// uses it to pull per-sample ∇θ out of one batched forward pass.
	BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor
	// BackwardBatchInput is BackwardBatch without parameter-gradient
	// accumulation: the same bit-identical [B, ...] input gradient with
	// the dW/db work skipped — the right backward for input synthesis,
	// which never reads parameter gradients.
	BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor
	// ReleaseBatchState drops whatever per-batch caches the layer keeps
	// between ForwardBatch and the batched backward passes; the next
	// ForwardBatch rebuilds them. Dense and Conv2D cache their input
	// tensor itself, not a copy, so an input must not change between
	// ForwardBatch and the backward pass that reads it.
	ReleaseBatchState()
}

// batchDim returns the leading (batch) dimension of x.
func batchDim(x *tensor.Tensor, name string) int {
	if x.Rank() < 2 {
		panic(fmt.Sprintf("nn: %s batch input must have a leading batch dimension, got %v", name, x.Shape()))
	}
	return x.Dim(0)
}

// ForwardBatch runs the full stack over a [B, ...] batch and returns the
// [B, classes] logits. Every logits row is bit-identical to Forward on
// that sample alone.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.LayerStack {
		bl, ok := l.(BatchLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s (%T) does not support batched evaluation", l.Name(), l))
		}
		x = bl.ForwardBatch(x)
	}
	return x
}

// BackwardBatch propagates a [B, classes] logits gradient through the
// stack (after a ForwardBatch), accumulating parameter gradients across
// the batch in ascending sample order — the exact sequence of the serial
// per-sample loop — and returns the [B, ...] input gradient.
func (n *Network) BackwardBatch(dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].(BatchLayer).BackwardBatch(d)
	}
	return d
}

// BackwardSample propagates one sample's logits gradient through the
// stack against the caches of the last ForwardBatch, accumulating that
// sample's parameter gradients only. Combined with ZeroGrad per sample
// it yields the same per-sample ∇θ as a per-sample Forward+Backward.
func (n *Network) BackwardSample(b int, dLogits *tensor.Tensor) *tensor.Tensor {
	d := dLogits
	for i := len(n.LayerStack) - 1; i >= 0; i-- {
		d = n.LayerStack[i].(BatchLayer).BackwardSample(b, d)
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
		d = n.LayerStack[i].(BatchLayer).BackwardBatchInput(d)
	}
	return d
}

// ReleaseBatchState drops the per-batch caches the batched passes keep
// on each layer (the inputs of dense and convolution layers, activation
// inputs/outputs, pooling winner indexes). Call it after a batched
// workload when the network lives on — serialized, served per-sample —
// so the last batch's caches do not pin heap; the next ForwardBatch
// rebuilds them. A pending BackwardBatch/BackwardSample must run before
// releasing.
func (n *Network) ReleaseBatchState() {
	for _, l := range n.LayerStack {
		if bl, ok := l.(BatchLayer); ok {
			bl.ReleaseBatchState()
		}
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

// --- Conv2D ---

// ForwardBatch implements BatchLayer: one direct-convolution kernel
// call over the whole batch, which writes each sample's [OutC, OH, OW]
// slab of the output with the bias added in its epilogue. Every output
// element gets the per-sample sequence, so the result is bit-identical
// to per-sample Forward. The layer caches x for the batched backward.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC || x.Dim(2) != c.InH || x.Dim(3) != c.InW {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", c.LayerName, c.InC, c.InH, c.InW, x.Shape()))
	}
	c.xBatch = x
	out := tensor.New(x.Dim(0), c.OutC, c.geom.OutH, c.geom.OutW)
	tensor.ConvForward(out, x, c.Weight.W, c.Bias.W, c.geom)
	return out
}

// ReleaseBatchState implements BatchLayer.
func (c *Conv2D) ReleaseBatchState() { c.xBatch = nil }

// BackwardSample implements BatchLayer: Backward against sample b of
// the cached batch input, so gradients are bit-identical to
// Forward+Backward on that sample alone.
func (c *Conv2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	return c.backwardWith(dOut, c.xBatch.Sample(b))
}

// BackwardBatch implements BatchLayer. Convolution weight gradients must
// accumulate per sample to stay bit-identical to the serial loop (the
// per-sample partial sums associate differently from one long reduction),
// so parameter gradients walk the samples in ascending order; the input
// gradient is one kernel call over the batch.
func (c *Conv2D) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, c.LayerName)
	for s := 0; s < b; s++ {
		c.paramGrads(dOut.Sample(s), c.xBatch.Sample(s))
	}
	return c.BackwardBatchInput(dOut)
}

// BackwardBatchInput implements BatchLayer: the dX chain only, skipping
// the weight and bias gradients. Each sample's gradient is written
// straight into its slab of the [B, C, H, W] result.
func (c *Conv2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(batchDim(dOut, c.LayerName), c.InC, c.InH, c.InW)
	tensor.ConvInputGrad(dx, dOut, c.Weight.W, c.geom)
	return dx
}

// --- Dense ---

// ForwardBatch implements BatchLayer: one [B,In]×[Out,In]ᵀ GEMM. Each
// output row runs the per-sample MatVec dot-product sequence, so rows
// are bit-identical to per-sample Forward.
func (d *Dense) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := batchDim(x, d.LayerName)
	if x.Size() != b*d.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs per sample, got %v", d.LayerName, d.In, x.Shape()))
	}
	d.xBatch = x.Reshape(b, d.In)
	out := tensor.MatMulTB(d.xBatch, d.Weight.W) // [B, Out]
	od, bd := out.Data(), d.Bias.W.Data()
	for s := 0; s < b; s++ {
		row := od[s*d.Out : (s+1)*d.Out]
		for o, bv := range bd {
			row[o] += bv
		}
	}
	return out
}

// BackwardBatch implements BatchLayer. dW = dOutᵀ·X accumulates every
// weight cell's per-sample terms in ascending sample order with the
// per-sample zero-skip (the MatMulTA kernel), dX = dOut·W computes every
// sample's input-gradient row with the per-sample kernel sequence, and
// the bias gradient walks samples in order — all bit-identical to the
// serial per-sample accumulation loop.
func (d *Dense) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, d.LayerName)
	if dOut.Size() != b*d.Out {
		panic(fmt.Sprintf("nn: %s backward expects %d grads per sample, got %v", d.LayerName, d.Out, dOut.Shape()))
	}
	d2 := dOut.Reshape(b, d.Out)
	tensor.MatMulTAInto(d.Weight.Grad, d2, d.xBatch, true)
	do, bg := d2.Data(), d.Bias.Grad.Data()
	for s := 0; s < b; s++ {
		for o := 0; o < d.Out; o++ {
			bg[o] += do[s*d.Out+o]
		}
	}
	return tensor.MatMul(d2, d.Weight.W) // [B, In]
}

// BackwardSample implements BatchLayer: the per-sample backward loops
// against sample b's cached input row.
func (d *Dense) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	return d.backwardWith(dOut, d.xBatch.Sample(b).Data())
}

// ReleaseBatchState implements BatchLayer.
func (d *Dense) ReleaseBatchState() { d.xBatch = nil }

// BackwardBatchInput implements BatchLayer: dX = dOut·W only.
func (d *Dense) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, d.LayerName)
	return tensor.MatMul(dOut.Reshape(b, d.Out), d.Weight.W)
}

// --- MaxPool2D ---

// ForwardBatch implements BatchLayer: the window scan runs per sample
// (pooling has no useful batched matrix form), caching each sample's
// winner indexes for the batched backward passes.
func (m *MaxPool2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != m.C || x.Dim(2) != m.H || x.Dim(3) != m.W {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", m.LayerName, m.C, m.H, m.W, x.Shape()))
	}
	b := x.Dim(0)
	m.batchB = b
	oh, ow := m.geom.OutH, m.geom.OutW
	outSz := m.C * oh * ow
	inSz := m.C * m.H * m.W
	out := tensor.New(b, m.C, oh, ow)
	if cap(m.argmaxB) < b*outSz {
		m.argmaxB = make([]int, b*outSz)
	}
	m.argmaxB = m.argmaxB[:b*outSz]
	xd, od := x.Data(), out.Data()
	for s := 0; s < b; s++ {
		m.poolSample(xd[s*inSz:(s+1)*inSz], od[s*outSz:(s+1)*outSz], m.argmaxB[s*outSz:(s+1)*outSz])
	}
	return out
}

// BackwardBatch implements BatchLayer.
func (m *MaxPool2D) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, m.LayerName)
	outSz := m.C * m.geom.OutH * m.geom.OutW
	inSz := m.C * m.H * m.W
	if dOut.Size() != b*outSz {
		panic(fmt.Sprintf("nn: %s batch backward size %d, want %d", m.LayerName, dOut.Size(), b*outSz))
	}
	dx := tensor.New(b, m.C, m.H, m.W)
	dd, dxd := dOut.Data(), dx.Data()
	for s := 0; s < b; s++ {
		scatterPool(dxd[s*inSz:(s+1)*inSz], dd[s*outSz:(s+1)*outSz], m.argmaxB[s*outSz:(s+1)*outSz])
	}
	return dx
}

// ReleaseBatchState implements BatchLayer.
func (m *MaxPool2D) ReleaseBatchState() { m.argmaxB, m.batchB = nil, 0 }

// BackwardBatchInput implements BatchLayer (pooling has no parameters).
func (m *MaxPool2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return m.BackwardBatch(dOut)
}

// BackwardSample implements BatchLayer.
func (m *MaxPool2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	outSz := m.C * m.geom.OutH * m.geom.OutW
	dx := tensor.New(m.C, m.H, m.W)
	scatterPool(dx.Data(), dOut.Data(), m.argmaxB[b*outSz:(b+1)*outSz])
	return dx
}

// --- Activate ---

// ForwardBatch implements BatchLayer; the activation is elementwise, so
// the batched pass is the per-sample pass over a longer slice.
func (a *Activate) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	a.inB = x
	a.outB = a.activate(x)
	return a.outB
}

// BackwardBatch implements BatchLayer.
func (a *Activate) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	return a.backwardWith(dOut, a.inB.Data(), a.outB.Data())
}

// ReleaseBatchState implements BatchLayer.
func (a *Activate) ReleaseBatchState() { a.inB, a.outB = nil, nil }

// BackwardBatchInput implements BatchLayer (activations have no
// parameters).
func (a *Activate) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return a.BackwardBatch(dOut)
}

// BackwardSample implements BatchLayer.
func (a *Activate) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	n := dOut.Size()
	return a.backwardWith(dOut, a.inB.Data()[b*n:(b+1)*n], a.outB.Data()[b*n:(b+1)*n])
}

// --- ScaleShift ---

// ForwardBatch implements BatchLayer; the affine map is elementwise and
// stateless, so the per-sample pass applies unchanged.
func (s *ScaleShift) ForwardBatch(x *tensor.Tensor) *tensor.Tensor { return s.Forward(x) }

// BackwardBatch implements BatchLayer.
func (s *ScaleShift) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor { return s.Backward(dOut) }

// BackwardBatchInput implements BatchLayer.
func (s *ScaleShift) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return s.Backward(dOut)
}

// ReleaseBatchState implements BatchLayer (ScaleShift keeps no state).
func (s *ScaleShift) ReleaseBatchState() {}

// BackwardSample implements BatchLayer.
func (s *ScaleShift) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return s.Backward(dOut)
}

// --- Flatten ---

// ForwardBatch implements BatchLayer: [B, d1, d2, ...] becomes
// [B, d1*d2*...], a reshape of shared data.
func (f *Flatten) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	b := batchDim(x, f.LayerName)
	f.inShapeB = append(f.inShapeB[:0], x.Shape()...)
	return x.Reshape(b, x.Size()/b)
}

// BackwardBatch implements BatchLayer.
func (f *Flatten) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB...)
}

// BackwardBatchInput implements BatchLayer.
func (f *Flatten) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return f.BackwardBatch(dOut)
}

// ReleaseBatchState implements BatchLayer.
func (f *Flatten) ReleaseBatchState() { f.inShapeB = nil }

// BackwardSample implements BatchLayer.
func (f *Flatten) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB[1:]...)
}
