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

	x      *tensor.Tensor // cached input of the last Forward
	xBatch *tensor.Tensor // cached [B,C,H,W] input of the last ForwardBatch
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
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(0) != c.InC || x.Dim(1) != c.InH || x.Dim(2) != c.InW {
		panic(fmt.Sprintf("nn: %s expects input [%d %d %d], got %v", c.LayerName, c.InC, c.InH, c.InW, x.Shape()))
	}
	c.x = x
	out := tensor.New(c.OutC, c.geom.OutH, c.geom.OutW)
	tensor.ConvForward(out, x, c.Weight.W, c.Bias.W, c.geom)
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(dOut *tensor.Tensor) *tensor.Tensor { return c.backwardWith(dOut, c.x) }

// backwardWith is the per-sample backward against an explicit cached
// input, shared by Backward and BackwardSample.
func (c *Conv2D) backwardWith(dOut, x *tensor.Tensor) *tensor.Tensor {
	c.paramGrads(dOut, x)
	dx := tensor.New(c.InC, c.InH, c.InW)
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

	x      *tensor.Tensor // cached input
	xBatch *tensor.Tensor // cached [B,In] input of the last ForwardBatch
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
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Size() != d.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %v", d.LayerName, d.In, x.Shape()))
	}
	d.x = x.Reshape(d.In)
	out := tensor.MatVec(d.Weight.W, d.x)
	out.AddInPlace(d.Bias.W)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	if dOut.Size() != d.Out {
		panic(fmt.Sprintf("nn: %s backward expects %d grads, got %v", d.LayerName, d.Out, dOut.Shape()))
	}
	return d.backwardWith(dOut, d.x.Data())
}

// backwardWith is the per-sample backward against an explicit cached
// input slice, shared by Backward and BackwardSample.
func (d *Dense) backwardWith(dOut *tensor.Tensor, xd []float64) *tensor.Tensor {
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

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// Flatten reshapes any input to rank-1, bridging conv stacks and dense
// heads.
type Flatten struct {
	LayerName string
	inShape   []int
	inShapeB  []int // input shape of the last ForwardBatch (incl. batch dim)
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	return x.Reshape(x.Size())
}

// Backward implements Layer.
func (f *Flatten) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	return dOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }
