package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over a [C,H,W] input, computed by the
// direct tensor.Conv* kernels, which read the input through the
// window map. Weights have shape [OutC, InC*K*K]; biases [OutC].
type Conv2D struct {
	LayerName       string
	InC, InH, InW   int
	OutC, K, Stride int
	Pad             int
	Weight, Bias    *Param
	geom            tensor.ConvGeom

	xBatch *tensor.Tensor // cached [B,C,H,W] input of the last forward pass
}

// NewConv2D constructs a convolution for a fixed input geometry.
func NewConv2D(name string, inC, inH, inW, outC, k, stride, pad int) *Conv2D {
	g := tensor.Geom(inC, inH, inW, k, k, stride, pad)
	return &Conv2D{
		LayerName: name,
		InC:       inC, InH: inH, InW: inW,
		OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: newParam(name+".W", outC, inC*k*k),
		Bias:   newParam(name+".b", outC),
		geom:   g,
	}
}

// Init fills the weights with He-normal values (suitable for ReLU) and
// zero biases.
func (c *Conv2D) Init(rng *rand.Rand) {
	c.Weight.W.HeNormal(rng, c.InC*c.K*c.K)
	c.Bias.W.Zero()
}

// InitGlorot fills the weights with Glorot-uniform values (suitable for
// Tanh/Sigmoid) and zero biases.
func (c *Conv2D) InitGlorot(rng *rand.Rand) {
	fanIn := c.InC * c.K * c.K
	fanOut := c.OutC * c.K * c.K
	c.Weight.W.GlorotUniform(rng, fanIn, fanOut)
	c.Bias.W.Zero()
}

// OutShape returns the [OutC, OutH, OutW] output shape.
func (c *Conv2D) OutShape() []int { return []int{c.OutC, c.geom.OutH, c.geom.OutW} }

// Geom returns the convolution window geometry.
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor { return forwardOne(c, x) }

// ForwardBatch implements Layer: one direct-convolution kernel call
// over the whole batch, which writes each sample's [OutC, OH, OW] slab
// of the output with the bias added in its epilogue; every output
// element gets the sequence it gets in a batch of one. The layer caches
// x for the backward passes.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	c.xBatch = x
	return convForward(c.LayerName, c.geom, c.OutC, x, c.Weight.W, c.Bias.W)
}

// convForward is the convolution forward pass of both precisions.
func convForward[E tensor.Num](name string, g tensor.ConvGeom, outC int, x, w, bias *tensor.Dense[E]) *tensor.Dense[E] {
	if x.Rank() != 4 || x.Dim(1) != g.C || x.Dim(2) != g.H || x.Dim(3) != g.W {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", name, g.C, g.H, g.W, x.Shape()))
	}
	out := tensor.NewOf[E](x.Dim(0), outC, g.OutH, g.OutW)
	tensor.ConvForward(out, x, w, bias, g)
	return out
}

// ReleaseBatchState implements Layer.
func (c *Conv2D) ReleaseBatchState() { c.xBatch = nil }

// BackwardSample implements Layer: the parameter gradients of sample b
// against its cached input, then its input gradient.
func (c *Conv2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	c.paramGrads(dOut, c.xBatch.Sample(b))
	dx := tensor.New(c.InC, c.InH, c.InW)
	tensor.ConvInputGrad(dx, dOut, c.Weight.W, c.geom)
	return dx
}

// BackwardBatch implements Layer. Convolution weight gradients must
// accumulate per sample to stay bit-identical to a batch of one (the
// per-sample partial sums associate differently from one long
// reduction), so parameter gradients walk the samples in ascending
// order; the input gradient is one kernel call over the batch.
func (c *Conv2D) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, c.LayerName)
	for s := 0; s < b; s++ {
		c.paramGrads(dOut.Sample(s), c.xBatch.Sample(s))
	}
	return c.BackwardBatchInput(dOut)
}

// BackwardBatchInput implements Layer: the dX chain only, skipping the
// weight and bias gradients. Each sample's gradient is written straight
// into its slab of the [B, C, H, W] result.
func (c *Conv2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	dx := tensor.New(batchDim(dOut, c.LayerName), c.InC, c.InH, c.InW)
	tensor.ConvInputGrad(dx, dOut, c.Weight.W, c.geom)
	return dx
}

// paramGrads accumulates one sample's weight and bias gradients from
// its output gradient and its cached input x.
func (c *Conv2D) paramGrads(dOut, x *tensor.Tensor) {
	hw := c.geom.OutH * c.geom.OutW
	tensor.ConvWeightGrad(c.Weight.Grad, dOut, x, c.geom)
	bd, dd := c.Bias.Grad.Data(), dOut.Data()
	for o := 0; o < c.OutC; o++ {
		bd[o] += tensor.Sum(dd[o*hw : o*hw+hw])
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Dense is a fully connected layer y = W·x + b over a rank-1 input.
type Dense struct {
	LayerName    string
	In, Out      int
	Weight, Bias *Param

	xBatch *tensor.Tensor // cached [B,In] input of the last forward pass
}

// NewDense constructs a fully connected layer.
func NewDense(name string, in, out int) *Dense {
	return &Dense{
		LayerName: name, In: in, Out: out,
		Weight: newParam(name+".W", out, in),
		Bias:   newParam(name+".b", out),
	}
}

// Init fills the weights with He-normal values and zero biases.
func (d *Dense) Init(rng *rand.Rand) {
	d.Weight.W.HeNormal(rng, d.In)
	d.Bias.W.Zero()
}

// InitGlorot fills the weights with Glorot-uniform values and zero biases.
func (d *Dense) InitGlorot(rng *rand.Rand) {
	d.Weight.W.GlorotUniform(rng, d.In, d.Out)
	d.Bias.W.Zero()
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor { return forwardOne(d, x) }

// ForwardBatch implements Layer: one [B,In]×[Out,In]ᵀ GEMM whose every
// output row is one dot product per output unit, the sequence a batch
// of one runs, plus the bias.
func (d *Dense) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	d.xBatch = denseRows(d.LayerName, d.In, x)
	return denseForward(d.xBatch, d.Weight.W, d.Bias.W)
}

// denseRows returns the batch x as its [B, in] matrix of rows.
func denseRows[E tensor.Num](name string, in int, x *tensor.Dense[E]) *tensor.Dense[E] {
	b := batchDim(x, name)
	if x.Size() != b*in {
		panic(fmt.Sprintf("nn: %s expects %d inputs per sample, got %v", name, in, x.Shape()))
	}
	return x.Reshape(b, in)
}

// denseForward is the dense forward pass of both precisions: the
// [B, Out] product of the [B, In] rows x with the weights, each row
// plus the bias.
func denseForward[E tensor.Num](x, w, bias *tensor.Dense[E]) *tensor.Dense[E] {
	out := tensor.MatMulTB(x, w)
	od, bd := out.Data(), bias.Data()
	for s := 0; s < x.Dim(0); s++ {
		row := od[s*len(bd) : (s+1)*len(bd)]
		for o, bv := range bd {
			row[o] += bv
		}
	}
	return out
}

// BackwardBatch implements Layer. dW = dOutᵀ·X accumulates every
// weight cell's per-sample terms in ascending sample order with the
// per-sample zero-skip (the MatMulTA kernel), dX = dOut·W computes every
// sample's input-gradient row with the per-sample kernel sequence, and
// the bias gradient walks samples in order — all bit-identical to
// BackwardSample over the samples in order.
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

// BackwardBatchInput implements Layer: dX = dOut·W only.
func (d *Dense) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	b := batchDim(dOut, d.LayerName)
	return tensor.MatMul(dOut.Reshape(b, d.Out), d.Weight.W)
}

// BackwardSample implements Layer: sample b's weight and bias
// gradients against its cached input row, then its input gradient.
func (d *Dense) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	if dOut.Size() != d.Out {
		panic(fmt.Sprintf("nn: %s backward expects %d grads, got %v", d.LayerName, d.Out, dOut.Shape()))
	}
	xd := d.xBatch.Data()[b*d.In : (b+1)*d.In]
	do := dOut.Data()
	wg := d.Weight.Grad.Data()
	for o := 0; o < d.Out; o++ {
		g := do[o]
		if g != 0 {
			row := wg[o*d.In : o*d.In+d.In]
			for i, xv := range xd {
				row[i] += g * xv
			}
		}
		d.Bias.Grad.Data()[o] += g
	}
	dx := tensor.New(d.In)
	dxd := dx.Data()
	wd := d.Weight.W.Data()
	for o := 0; o < d.Out; o++ {
		g := do[o]
		if g == 0 {
			continue
		}
		row := wd[o*d.In : o*d.In+d.In]
		for i, wv := range row {
			dxd[i] += g * wv
		}
	}
	return dx
}

// ReleaseBatchState implements Layer.
func (d *Dense) ReleaseBatchState() { d.xBatch = nil }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// Flatten reshapes any input to rank-1, bridging conv stacks and dense
// heads.
type Flatten struct {
	LayerName string
	inShapeB  []int // input shape of the last forward pass (incl. batch dim)
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor { return forwardOne(f, x) }

// ForwardBatch implements Layer: [B, d1, d2, ...] becomes
// [B, d1*d2*...], a reshape of shared data.
func (f *Flatten) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	f.inShapeB = append(f.inShapeB[:0], x.Shape()...)
	return flatten(f.LayerName, x)
}

// flatten is the flatten forward pass of both precisions.
func flatten[E tensor.Num](name string, x *tensor.Dense[E]) *tensor.Dense[E] {
	b := batchDim(x, name)
	return x.Reshape(b, x.Size()/b)
}

// BackwardBatch implements Layer.
func (f *Flatten) BackwardBatch(dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB...)
}

// BackwardBatchInput implements Layer.
func (f *Flatten) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return f.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (f *Flatten) BackwardSample(_ int, dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShapeB[1:]...)
}

// ReleaseBatchState implements Layer.
func (f *Flatten) ReleaseBatchState() { f.inShapeB = nil }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }
