package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to a [C,H,W] input.
type ConvGeom struct {
	C, H, W    int // input channels, height, width
	KH, KW     int // kernel size
	Stride     int
	Pad        int
	OutH, OutW int // derived output size
}

// Geom computes the output geometry for the given input and window
// parameters. It panics if the window never fits.
func Geom(c, h, w, kh, kw, stride, pad int) ConvGeom {
	if stride <= 0 {
		panic(fmt.Sprintf("tensor: stride %d must be positive", stride))
	}
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: conv window k=(%d,%d) stride=%d pad=%d does not fit input %dx%d", kh, kw, stride, pad, h, w))
	}
	return ConvGeom{C: c, H: h, W: w, KH: kh, KW: kw, Stride: stride, Pad: pad, OutH: oh, OutW: ow}
}

// Im2Col lowers a [C,H,W] input into a [C*KH*KW, OutH*OutW] matrix whose
// columns are the flattened receptive fields, so that convolution becomes
// a single MatMul with the [OC, C*KH*KW] weight matrix. Padding positions
// contribute zeros. It is Im2ColBatch of a one-sample batch. The layers
// no longer lower through it (conv.go reads the input through the window
// map); it remains the reference the direct kernels are pinned against.
func Im2Col[E Num](x *Dense[E], g ConvGeom) *Dense[E] {
	if x.Rank() != 3 || x.Dim(0) != g.C || x.Dim(1) != g.H || x.Dim(2) != g.W {
		panic(fmt.Sprintf("tensor: Im2Col input %v does not match geometry %+v", x.Shape(), g))
	}
	return Im2ColBatch(x.Reshape(1, g.C, g.H, g.W), g)
}

// Im2ColBatch lowers a [B,C,H,W] batch into a [C*KH*KW, B*OutH*OutW]
// matrix: sample b's receptive-field columns occupy the contiguous
// column block [b*OutH*OutW, (b+1)*OutH*OutW). A convolution over the
// whole batch is then a single wide MatMul with the weight matrix, in
// which every output column gets the per-sample product's operation
// sequence.
func Im2ColBatch[E Num](x *Dense[E], g ConvGeom) *Dense[E] {
	if x.Rank() != 4 || x.Dim(1) != g.C || x.Dim(2) != g.H || x.Dim(3) != g.W {
		panic(fmt.Sprintf("tensor: Im2ColBatch input %v does not match geometry %+v", x.Shape(), g))
	}
	batch := x.Dim(0)
	rows := g.C * g.KH * g.KW
	sampleCols := g.OutH * g.OutW
	cols := batch * sampleCols
	out := NewOf[E](rows, cols)
	xd, od := x.Data(), out.Data()
	sampleSize := g.C * g.H * g.W
	for b := 0; b < batch; b++ {
		xs := xd[b*sampleSize : (b+1)*sampleSize]
		colBase := b * sampleCols
		for c := 0; c < g.C; c++ {
			for ki := 0; ki < g.KH; ki++ {
				for kj := 0; kj < g.KW; kj++ {
					row := (c*g.KH+ki)*g.KW + kj
					base := row*cols + colBase
					for oi := 0; oi < g.OutH; oi++ {
						ii := oi*g.Stride + ki - g.Pad
						if ii < 0 || ii >= g.H {
							continue // stays zero
						}
						xrow := xs[(c*g.H+ii)*g.W:]
						orow := od[base+oi*g.OutW:]
						for oj := 0; oj < g.OutW; oj++ {
							jj := oj*g.Stride + kj - g.Pad
							if jj >= 0 && jj < g.W {
								orow[oj] = xrow[jj]
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Col2Im scatters a [C*KH*KW, OutH*OutW] column matrix back into a
// [C,H,W] tensor, accumulating overlapping contributions. It is the
// adjoint of Im2Col; Col2Im(MatMulTA(w, dOut)) is the reference the
// direct input-gradient kernel (conv.go) is pinned against.
func Col2Im[E Num](col *Dense[E], g ConvGeom) *Dense[E] {
	rows := g.C * g.KH * g.KW
	cols := g.OutH * g.OutW
	if col.Rank() != 2 || col.Dim(0) != rows || col.Dim(1) != cols {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match geometry %+v", col.Shape(), g))
	}
	x := NewOf[E](g.C, g.H, g.W)
	cd, xd := col.Data(), x.Data()
	for c := 0; c < g.C; c++ {
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				row := (c*g.KH+ki)*g.KW + kj
				base := row * cols
				for oi := 0; oi < g.OutH; oi++ {
					ii := oi*g.Stride + ki - g.Pad
					if ii < 0 || ii >= g.H {
						continue
					}
					xrow := xd[(c*g.H+ii)*g.W:]
					crow := cd[base+oi*g.OutW:]
					for oj := 0; oj < g.OutW; oj++ {
						jj := oj*g.Stride + kj - g.Pad
						if jj >= 0 && jj < g.W {
							xrow[jj] += crow[oj]
						}
					}
				}
			}
		}
	}
	return x
}
