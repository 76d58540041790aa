package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MaxPool2D is a max pooling layer over a [C,H,W] input with a square
// window. The backward pass routes each output gradient to the input
// position that won the max, as cached during the forward pass.
type MaxPool2D struct {
	LayerName string
	C, H, W   int
	K, Stride int
	geom      tensor.ConvGeom

	argmaxB []int // per-sample winner indexes of the last forward pass
}

// NewMaxPool2D constructs a max pooling layer for a fixed input geometry.
func NewMaxPool2D(name string, c, h, w, k, stride int) *MaxPool2D {
	g := tensor.Geom(c, h, w, k, k, stride, 0)
	return &MaxPool2D{LayerName: name, C: c, H: h, W: w, K: k, Stride: stride, geom: g}
}

// OutShape returns the [C, OutH, OutW] output shape.
func (m *MaxPool2D) OutShape() []int { return []int{m.C, m.geom.OutH, m.geom.OutW} }

// Geom returns the pooling window geometry.
func (m *MaxPool2D) Geom() tensor.ConvGeom { return m.geom }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor) *tensor.Tensor { return forwardOne(m, x) }

// ForwardBatch implements Layer: the window scan runs per sample
// (pooling has no useful batched matrix form), caching each sample's
// winner indexes for the backward passes.
func (m *MaxPool2D) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	n := batchDim(x, m.LayerName) * m.C * m.geom.OutH * m.geom.OutW
	if cap(m.argmaxB) < n {
		m.argmaxB = make([]int, n)
	}
	m.argmaxB = m.argmaxB[:n]
	return maxPool(m.LayerName, m.geom, x, m.argmaxB)
}

// maxPool is the max-pooling forward pass of both precisions: the
// window scan over every sample of the [B, C, H, W] batch x. It writes
// each output cell's winning input index, relative to its sample, to
// argmax unless argmax is nil.
func maxPool[E tensor.Num](name string, g tensor.ConvGeom, x *tensor.Dense[E], argmax []int) *tensor.Dense[E] {
	if x.Rank() != 4 || x.Dim(1) != g.C || x.Dim(2) != g.H || x.Dim(3) != g.W {
		panic(fmt.Sprintf("nn: %s expects batch input [B %d %d %d], got %v", name, g.C, g.H, g.W, x.Shape()))
	}
	out := tensor.NewOf[E](x.Dim(0), g.C, g.OutH, g.OutW)
	xd, od := x.Data(), out.Data()
	oi2 := 0
	for s := 0; s < x.Dim(0); s++ {
		sample := xd[s*g.C*g.H*g.W : (s+1)*g.C*g.H*g.W]
		for c := 0; c < g.C; c++ {
			chanBase := c * g.H * g.W
			for oi := 0; oi < g.OutH; oi++ {
				for oj := 0; oj < g.OutW; oj++ {
					var best E
					bi := -1
					for ki := 0; ki < g.KH; ki++ {
						rowBase := chanBase + (oi*g.Stride+ki)*g.W
						for kj := 0; kj < g.KW; kj++ {
							j := rowBase + oj*g.Stride + kj
							if v := sample[j]; bi < 0 || v > best {
								best, bi = v, j
							}
						}
					}
					od[oi2] = best
					if argmax != nil {
						argmax[oi2] = bi
					}
					oi2++
				}
			}
		}
	}
	return out
}

// BackwardBatch implements Layer.
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

// BackwardBatchInput implements Layer (pooling has no parameters).
func (m *MaxPool2D) BackwardBatchInput(dOut *tensor.Tensor) *tensor.Tensor {
	return m.BackwardBatch(dOut)
}

// BackwardSample implements Layer.
func (m *MaxPool2D) BackwardSample(b int, dOut *tensor.Tensor) *tensor.Tensor {
	outSz := m.C * m.geom.OutH * m.geom.OutW
	if dOut.Size() != outSz {
		panic(fmt.Sprintf("nn: %s backward size %d, want %d", m.LayerName, dOut.Size(), outSz))
	}
	dx := tensor.New(m.C, m.H, m.W)
	scatterPool(dx.Data(), dOut.Data(), m.argmaxB[b*outSz:(b+1)*outSz])
	return dx
}

// ReleaseBatchState implements Layer.
func (m *MaxPool2D) ReleaseBatchState() { m.argmaxB = nil }

// scatterPool routes each output gradient back to the input cell that won
// its window.
func scatterPool(dxd, dd []float64, argmax []int) {
	for i, g := range dd {
		dxd[argmax[i]] += g
	}
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.LayerName }
